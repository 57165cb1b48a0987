package trace

import "testing"

func TestFilterPartition(t *testing.T) {
	tr := &Trace{Jobs: []Job{
		{ID: 1, Partition: "a"}, {ID: 2, Partition: "b"}, {ID: 3, Partition: "a"},
	}}
	sub := tr.FilterPartition("a")
	if len(sub.Jobs) != 2 || sub.Jobs[0].ID != 1 || sub.Jobs[1].ID != 3 {
		t.Fatalf("FilterPartition = %+v", sub.Jobs)
	}
	if len(tr.FilterPartition("missing").Jobs) != 0 {
		t.Fatal("missing partition should be empty")
	}
	// Mutating the filtered copy must not touch the original.
	sub.Jobs[0].ID = 99
	if tr.Jobs[0].ID == 99 {
		t.Fatal("FilterPartition aliases the original")
	}
}

func TestSpan(t *testing.T) {
	tr := &Trace{Jobs: []Job{
		{Submit: 50, End: 100}, {Submit: 10, End: 80}, {Submit: 30, End: 200},
	}}
	first, last := tr.Span()
	if first != 10 || last != 200 {
		t.Fatalf("Span = %d, %d", first, last)
	}
	empty := &Trace{}
	if f, l := empty.Span(); f != 0 || l != 0 {
		t.Fatal("empty span should be zero")
	}
}
