// Command inspect prints what the global command processor sees for a
// benchmark: its data structures, the per-kernel argument metadata
// (modes, patterns, per-chiplet ranges), the dynamic kernel sequence, and a
// dry-run of the Chiplet Coherence Table's decisions for the first launches.
//
// With -audit it instead runs a full CPElide simulation and prints the
// elision audit log: per kernel boundary, which implicit acquires/releases
// were issued vs. elided on each chiplet, and the coherence-table state
// that justified the decision.
//
// Usage:
//
//	inspect -workload hotspot3D
//	inspect -workload sssp -launches 8 -chiplets 4
//	inspect -workload color -audit -launches 12
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("inspect: ")
	var (
		name     = flag.String("workload", "square", "benchmark name")
		chiplets = flag.Int("chiplets", 4, "chiplet count for partitioning")
		launches = flag.Int("launches", 6, "number of launches to dry-run through the table")
		scale    = flag.Float64("scale", 1.0, "footprint scale")
		audit    = flag.Bool("audit", false, "run a CPElide simulation and print the elision audit log")
		showTbl  = flag.Bool("audit-table", false, "with -audit, also print each boundary's pre-launch table state")
	)
	flag.Parse()

	alloc := kernels.NewAllocator(0x1000_0000, 4096)
	w, err := workloads.Build(*name, alloc, workloads.Params{Scale: *scale})
	if err != nil {
		log.Fatal(err)
	}

	if *audit {
		runAudit(w, *chiplets, *launches, *showTbl)
		return
	}

	fmt.Printf("%s (%s reuse) — %d structures, %d dynamic kernels, %.1f MB footprint\n\n",
		w.Name, w.Class, len(w.Structures), len(w.Sequence),
		float64(w.FootprintBytes())/(1<<20))

	fmt.Println("data structures:")
	for _, d := range w.Structures {
		fmt.Printf("  %-12s base=%#x  %8.2f MB  elem=%dB\n",
			d.Name, d.Base, float64(d.Bytes)/(1<<20), d.ElemSize)
	}

	fmt.Println("\nstatic kernels:")
	seen := map[*kernels.Kernel]bool{}
	for _, k := range w.Sequence {
		if seen[k] {
			continue
		}
		seen[k] = true
		fmt.Printf("  %-24s WGs=%-4d compute/WG=%-6d LDS/WG=%d\n",
			k.Name, k.WGs, k.ComputePerWG, k.LDSBytesPerWG)
		for _, a := range k.Args {
			extra := ""
			switch a.Pattern {
			case kernels.Stencil:
				extra = fmt.Sprintf(" halo=%d", a.HaloLines)
			case kernels.Indirect:
				extra = fmt.Sprintf(" touches=%d hot=%.2f", a.TouchesPerLine, a.HotFraction)
			case kernels.Linear, kernels.Strided, kernels.Broadcast:
				// No per-pattern detail beyond the pattern name itself.
			}
			fmt.Printf("    %-12s %-4s %-10s%s\n", a.DS.Name, a.Mode, a.Pattern, extra)
		}
	}

	fmt.Printf("\nChiplet Coherence Table dry-run (%d chiplets, first %d launches):\n",
		*chiplets, *launches)
	fmt.Println("  (annotation metadata only — without page-placement knowledge the")
	fmt.Println("  table is more conservative than in a full simulation)")
	table, err := core.NewTable(core.Config{Chiplets: *chiplets})
	if err != nil {
		fmt.Fprintln(os.Stderr, "inspect:", err)
		os.Exit(2)
	}
	chs := make([]int, *chiplets)
	for i := range chs {
		chs[i] = i
	}
	for inst, k := range w.Sequence {
		if inst >= *launches {
			break
		}
		l := cp.BuildLaunch(k, inst, 0, chs, 64, true)
		views := make([]core.ArgView, 0, len(k.Args))
		for ai, a := range k.Args {
			v := core.ArgView{
				Base:   a.DS.Base,
				Full:   a.DS.Range(),
				Mode:   a.Mode,
				Ranges: make([]mem.RangeSet, *chiplets),
			}
			for slot, c := range chs {
				v.Ranges[c] = l.ArgRanges[ai][slot]
			}
			views = append(views, v)
		}
		ops := table.OnKernelLaunch(views)
		fmt.Printf("  #%-3d %-24s -> %d ops", inst, k.Name, len(ops))
		for _, op := range ops {
			kind := "acquire"
			if op.Flush {
				kind = "release"
			}
			fmt.Printf(" [%s c%d]", kind, op.Chiplet)
		}
		fmt.Println()
	}
	fmt.Printf("\n%s", table)
}

// runAudit executes the workload under CPElide with tracing enabled and
// prints the elision audit log: what every kernel boundary issued vs.
// elided, per chiplet, and a run summary.
func runAudit(w *kernels.Workload, chiplets, launches int, showTable bool) {
	rec := trace.New(0)
	rep, err := cpelide.Run(cpelide.DefaultConfig(chiplets), w, cpelide.Options{
		Protocol: cpelide.ProtocolCPElide,
		Trace:    rec,
	})
	if err != nil {
		log.Fatal(err)
	}

	audits := rec.Audits()
	fmt.Printf("%s under CPElide on %d chiplets: %d dynamic kernels, %d cycles, %d stale reads\n\n",
		w.Name, chiplets, rep.Kernels, rep.Cycles, rep.StaleReads)
	fmt.Printf("elision audit log (first %d of %d boundaries):\n", min(launches, len(audits)), len(audits))
	var acqI, relI, acqE, relE uint64
	for i, a := range audits {
		acqI += a.AcquiresIssued
		relI += a.ReleasesIssued
		acqE += a.AcquiresElided
		relE += a.ReleasesElided
		if i >= launches {
			continue
		}
		var ops []string
		for _, d := range a.Decisions {
			switch {
			case d.ReleaseIssued && d.AcquireIssued:
				ops = append(ops, fmt.Sprintf("c%d:rel+acq", d.Chiplet))
			case d.ReleaseIssued:
				ops = append(ops, fmt.Sprintf("c%d:rel", d.Chiplet))
			case d.AcquireIssued:
				ops = append(ops, fmt.Sprintf("c%d:acq", d.Chiplet))
			}
		}
		issued := strings.Join(ops, " ")
		if issued == "" {
			issued = "all elided"
		}
		fmt.Printf("  @%-10d #%-3d %-24s issued[%s]  elided acq/rel %d/%d\n",
			a.Ts, a.Inst, a.Kernel, issued, a.AcquiresElided, a.ReleasesElided)
		if showTable && a.Table != "" {
			for _, line := range strings.Split(strings.TrimRight(a.Table, "\n"), "\n") {
				fmt.Printf("      %s\n", line)
			}
		}
	}
	fmt.Printf("\ntotals: acquires issued/elided %d/%d, releases issued/elided %d/%d\n",
		acqI, acqE, relI, relE)
	fmt.Printf("trace: %d events recorded\n", rec.Len())
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
