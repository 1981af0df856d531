// Command ipsobs inspects and compares the run manifests written by
// ips/ipsbench -manifest and by perfbench's traced runs (see
// internal/obs.Manifest).
//
// Usage:
//
//	ipsobs report run.json
//	ipsobs diff  [-threshold 0.10] old.json new.json
//	ipsobs check [-threshold 0.25] baseline.json fresh.json
//
// report renders one manifest as a human-readable text report: environment,
// config, dataset identity, the span tree with wall times, metric summaries
// with streaming quantiles, and the flight recorder's runtime peaks.
//
// diff compares two manifests stage by stage and flags regressions: total or
// per-stage wall time grown by more than the threshold (default 10%),
// accuracy dropped by more than the threshold relative, or a run error that
// the old manifest did not have.  Exit status 1 when any regression is
// flagged, 0 when clean.
//
// check is diff with CI defaults: a 25% threshold (wall times on shared
// runners are noisy), terse output, and the same exit contract — wire it
// against a committed baseline manifest to gate merges.  Improvements never
// fail either mode; only regressions do.
//
// Exit status: 0 clean, 1 regression flagged, 2 usage or read error.
package main

import (
	"flag"
	"fmt"
	"os"

	"ips/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	switch args[0] {
	case "report":
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "usage: ipsobs report <manifest.json>")
			return 2
		}
		m, err := obs.ReadManifest(args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipsobs:", err)
			return 2
		}
		writeReport(os.Stdout, m)
		return 0
	case "diff", "check":
		fs := flag.NewFlagSet("ipsobs "+args[0], flag.ContinueOnError)
		def := 0.10
		terse := false
		if args[0] == "check" {
			def = 0.25
			terse = true
		}
		threshold := fs.Float64("threshold", def, "relative regression threshold (0.10 = 10%)")
		if err := fs.Parse(args[1:]); err != nil {
			return 2
		}
		if fs.NArg() != 2 {
			fmt.Fprintf(os.Stderr, "usage: ipsobs %s [-threshold F] <old.json> <new.json>\n", args[0])
			return 2
		}
		if *threshold <= 0 {
			fmt.Fprintln(os.Stderr, "ipsobs: -threshold must be positive")
			return 2
		}
		old, err := obs.ReadManifest(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipsobs:", err)
			return 2
		}
		fresh, err := obs.ReadManifest(fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipsobs:", err)
			return 2
		}
		d := compare(old, fresh, *threshold)
		writeDiff(os.Stdout, d, terse)
		if len(d.Regressions) > 0 {
			return 1
		}
		return 0
	default:
		fmt.Fprintf(os.Stderr, "ipsobs: unknown command %q\n", args[0])
		usage()
		return 2
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  ipsobs report run.json
  ipsobs diff  [-threshold 0.10] old.json new.json
  ipsobs check [-threshold 0.25] baseline.json fresh.json`)
}
