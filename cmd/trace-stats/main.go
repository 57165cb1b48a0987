// Command trace-stats summarizes an accounting trace: the paper's Table I
// rows, per-partition breakdowns, and the queue-time density histogram
// (Fig 2) — everything an operator needs to sanity-check a trace before
// training on it.
//
// Usage:
//
//	trace-stats trace.csv
//	trace-stats -partition shared trace.jsonl
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trace-stats: ")
	var (
		partition = flag.String("partition", "", "restrict to one partition")
		bins      = flag.Int("bins", 20, "histogram bins")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: trace-stats [-partition name] <trace.csv|trace.jsonl>")
	}
	tr, err := trace.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	if *partition != "" {
		tr = tr.FilterPartition(*partition)
		if len(tr.Jobs) == 0 {
			log.Fatalf("no jobs in partition %q", *partition)
		}
	}

	first, last := tr.Span()
	fmt.Printf("%d jobs spanning %.1f days\n\n", len(tr.Jobs), float64(last-first)/86400)

	one := tr.TableOne()
	row := func(name string, s trace.Summary) {
		fmt.Printf("%-24s %10.1f %10.2f %10.2f %10.2f %10d\n",
			name, s.Max, s.Mean, s.Median, s.StdDev, s.Count)
	}
	fmt.Printf("%-24s %10s %10s %10s %10s %10s\n", "Variable", "Max", "Mean", "Median", "StdDev", "Count")
	row("Requested Time (hr)", one.RequestedHours)
	row("Runtime (hr)", one.RuntimeHours)
	row("Wasted Time (hr)", one.WastedHours)
	row("Jobs Submitted By User", one.JobsPerUser)
	fmt.Printf("\nshort-queue fraction (<10 min): %.4f   mean wall-time usage: %.4f\n",
		tr.ShortQueueFraction(600), tr.MeanWalltimeUsage())

	fmt.Println("\njobs per partition:")
	byPart := tr.ByPartition()
	names := make([]string, 0, len(byPart))
	for n := range byPart {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sub := tr.FilterPartition(n)
		fmt.Printf("  %-12s %7d jobs (%5.1f%%)  short %.3f\n",
			n, byPart[n], 100*float64(byPart[n])/float64(len(tr.Jobs)),
			sub.ShortQueueFraction(600))
	}

	fmt.Println("\nqueue-time density (minutes, log bins):")
	qs := make([]float64, len(tr.Jobs))
	for i := range tr.Jobs {
		qs[i] = tr.Jobs[i].QueueMinutes()
	}
	hist := metrics.LogHistogram(qs, *bins)
	maxCount := 0
	for _, b := range hist {
		if b.Count > maxCount {
			maxCount = b.Count
		}
	}
	for _, b := range hist {
		bar := ""
		if maxCount > 0 {
			bar = strings.Repeat("#", 50*b.Count/maxCount)
		}
		fmt.Printf("  [%9.2f, %9.2f) %8d %s\n", b.Lo, b.Hi, b.Count, bar)
	}
}
