// Command tracegen synthesizes an Anvil-like workload, runs it through the
// Slurm-style cluster simulator, and writes the completed-job accounting
// trace (CSV or JSONL), or — with -format events — the equivalent
// time-ordered JSONL job-event stream (submit/eligible/start/end/cancel)
// for replaying into troutd's POST /events endpoint. It also prints the
// paper's Table I statistics for the generated trace.
//
// Usage:
//
//	tracegen -jobs 60000 -seed 1 -o trace.csv
//	tracegen -jobs 200000 -format jsonl -o trace.jsonl -scale 2
//	tracegen -jobs 60000 -format events -o events.jsonl
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	trout "repro"
	"repro/internal/livestate"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	var (
		jobs   = flag.Int("jobs", 60000, "number of jobs to generate")
		seed   = flag.Int64("seed", 1, "random seed")
		scale  = flag.Int("scale", 1, "cluster scale factor (1 = 36 nodes)")
		out    = flag.String("o", "trace.csv", "output path")
		format = flag.String("format", "csv", "output format: csv, jsonl, or events (JSONL job-event stream)")
		quiet  = flag.Bool("q", false, "suppress the Table I summary")
	)
	flag.Parse()

	p := trout.DefaultPipeline(*jobs, *seed)
	p.Scale = *scale
	tr, _, err := p.GenerateTrace()
	if err != nil {
		log.Fatal(err)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	written := fmt.Sprintf("%d jobs", len(tr.Jobs))
	switch *format {
	case "csv":
		err = tr.WriteCSV(f)
	case "jsonl":
		err = tr.WriteJSONL(f)
	case "events":
		evs := livestate.EventsFromTrace(tr)
		written = fmt.Sprintf("%d events (%d jobs)", len(evs), len(tr.Jobs))
		err = livestate.WriteEvents(f, evs)
	default:
		log.Fatalf("unknown format %q (want csv, jsonl, or events)", *format)
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s to %s\n", written, *out)

	if !*quiet {
		fmt.Println("\nTable I — generated trace statistics:")
		tr.TableOne().Print(os.Stdout)
	}
}
