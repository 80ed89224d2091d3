package harness

import (
	"fmt"

	"lrcdsm/internal/apps/taskqueue"
	"lrcdsm/internal/core"
	"lrcdsm/internal/network"
)

// DefaultProcs is the processor-count axis used by the paper's figures.
var DefaultProcs = []int{1, 2, 4, 8, 16}

// FigureSet bundles the three per-application plots the paper shows for
// each workload on ATM: speedup, message count, and data volume — e.g.
// Figures 7–9 for Jacobi, 10–12 for TSP, 13–15 for Water, 16–18 for
// Cholesky. Rows are protocols, columns are processor counts.
type FigureSet struct {
	App     string
	Speedup *Table
	Msgs    *Table
	DataKB  *Table
}

// sweepCell is the outcome of one (row, column) cell of a sweep, filled
// in by the worker pool and assembled into tables afterwards.
type sweepCell struct {
	res     *Result
	speedup float64
}

// AppFigures runs the full protocol × processor sweep for one application
// on the given network and renders the three plots. Cells execute on the
// runner's worker pool; tables are assembled in row-major cell order, so
// the rendered output is identical for any worker count.
func AppFigures(r *Runner, app string, scale Scale, procs []int, net network.Params, title string) (*FigureSet, error) {
	cols := []string{"protocol"}
	for _, p := range procs {
		cols = append(cols, fmt.Sprintf("%dp", p))
	}
	fs := &FigureSet{
		App:     app,
		Speedup: &Table{Title: title + " — speedup", Columns: cols},
		Msgs:    &Table{Title: title + " — messages", Columns: cols},
		DataKB:  &Table{Title: title + " — data (KB)", Columns: cols},
	}
	np := len(procs)
	cells := make([]sweepCell, len(core.Protocols)*np)
	err := r.RunCells(len(cells), func(i int) error {
		spec := DefaultSpec(app, scale)
		spec.Protocol = core.Protocols[i/np]
		spec.Procs = procs[i%np]
		spec.Net = net
		res, speedup, err := r.Speedup(spec)
		if err != nil {
			return err
		}
		cells[i] = sweepCell{res, speedup}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, prot := range core.Protocols {
		su := []string{prot.String()}
		ms := []string{prot.String()}
		da := []string{prot.String()}
		for ni := range procs {
			c := cells[pi*np+ni]
			su = append(su, fmt.Sprintf("%.2f", c.speedup))
			ms = append(ms, fmt.Sprintf("%d", c.res.Stats.Msgs))
			da = append(da, fmt.Sprintf("%.0f", c.res.Stats.DataKB()))
		}
		fs.Speedup.Rows = append(fs.Speedup.Rows, su)
		fs.Msgs.Rows = append(fs.Msgs.Rows, ms)
		fs.DataKB.Rows = append(fs.DataKB.Rows, da)
	}
	return fs, nil
}

// Figure6 reproduces "Speedup for Jacobi on Ethernet": the shared medium
// saturates, so speedup peaks around 8 processors and declines at 16.
func Figure6(r *Runner, scale Scale) (*Table, error) {
	fs, err := AppFigures(r, "jacobi", scale, DefaultProcs,
		network.Ethernet10(core.DefaultClockMHz, true), "Figure 6: Jacobi on 10 Mbit Ethernet")
	if err != nil {
		return nil, err
	}
	return fs.Speedup, nil
}

// Figures7to9 reproduces the Jacobi-on-ATM plots.
func Figures7to9(r *Runner, scale Scale) (*FigureSet, error) {
	return AppFigures(r, "jacobi", scale, DefaultProcs,
		network.ATMNet(100, core.DefaultClockMHz), "Figures 7-9: Jacobi on 100 Mbit ATM")
}

// Figures10to12 reproduces the TSP-on-ATM plots.
func Figures10to12(r *Runner, scale Scale) (*FigureSet, error) {
	return AppFigures(r, "tsp", scale, DefaultProcs,
		network.ATMNet(100, core.DefaultClockMHz), "Figures 10-12: TSP on 100 Mbit ATM")
}

// Figures13to15 reproduces the Water-on-ATM plots.
func Figures13to15(r *Runner, scale Scale) (*FigureSet, error) {
	return AppFigures(r, "water", scale, DefaultProcs,
		network.ATMNet(100, core.DefaultClockMHz), "Figures 13-15: Water on 100 Mbit ATM")
}

// Figures16to18 reproduces the Cholesky-on-ATM plots.
func Figures16to18(r *Runner, scale Scale) (*FigureSet, error) {
	return AppFigures(r, "cholesky", scale, DefaultProcs,
		network.ATMNet(100, core.DefaultClockMHz), "Figures 16-18: Cholesky on 100 Mbit ATM")
}

// Table2Networks lists the five network configurations of Table 2.
func Table2Networks(clockMHz float64) []struct {
	Name string
	Net  network.Params
} {
	return []struct {
		Name string
		Net  network.Params
	}{
		{"10 Mbit Ethernet w/ Coll", network.Ethernet10(clockMHz, true)},
		{"10 Mbit Ethernet w/o Coll", network.Ethernet10(clockMHz, false)},
		{"10 Mbit ATM", network.ATMNet(10, clockMHz)},
		{"100 Mbit ATM", network.ATMNet(100, clockMHz)},
		{"1 Gbit ATM", network.ATMNet(1000, clockMHz)},
	}
}

// Table2 reproduces "Speedups With Different Network Characteristics"
// (LH, 16 processors): Jacobi and Water across five networks.
func Table2(r *Runner, scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Table 2: Speedups with different network characteristics (LH, 16 processors)",
		Columns: []string{"network", "Jacobi", "Water"},
	}
	nets := Table2Networks(core.DefaultClockMHz)
	apps := []string{"jacobi", "water"}
	cells := make([]sweepCell, len(nets)*len(apps))
	err := r.RunCells(len(cells), func(i int) error {
		spec := DefaultSpec(apps[i%len(apps)], scale)
		spec.Net = nets[i/len(apps)].Net
		res, speedup, err := r.Speedup(spec)
		if err != nil {
			return err
		}
		cells[i] = sweepCell{res, speedup}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ni, nc := range nets {
		row := []string{nc.Name}
		for ai := range apps {
			row = append(row, fmt.Sprintf("%.2f", cells[ni*len(apps)+ai].speedup))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table3 reproduces "Speedups With Varying Software Overhead" (16
// processors): zero, normal, and double per-message software overhead for
// every application and protocol.
func Table3(r *Runner, scale Scale) (*Table, error) {
	cols := []string{"prog/overhead"}
	for _, p := range core.Protocols {
		cols = append(cols, p.String())
	}
	t := &Table{Title: "Table 3: Speedups with varying software overhead (16 processors)", Columns: cols}
	overheads := []struct {
		name   string
		factor float64
	}{{"Zero", 0}, {"Normal", 1}, {"Double", 2}}
	nprot := len(core.Protocols)
	rows := len(AppNames) * len(overheads)
	cells := make([]sweepCell, rows*nprot)
	err := r.RunCells(len(cells), func(i int) error {
		row, pi := i/nprot, i%nprot
		spec := DefaultSpec(AppNames[row/len(overheads)], scale)
		spec.Protocol = core.Protocols[pi]
		spec.OverheadFactor = overheads[row%len(overheads)].factor
		res, speedup, err := r.Speedup(spec)
		if err != nil {
			return err
		}
		cells[i] = sweepCell{res, speedup}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ai, app := range AppNames {
		for oi, ov := range overheads {
			rowIdx := ai*len(overheads) + oi
			row := []string{fmt.Sprintf("%s/%s", app, ov.name)}
			for pi := range core.Protocols {
				row = append(row, fmt.Sprintf("%.2f", cells[rowIdx*nprot+pi].speedup))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// Table4 reproduces "Speedups with Different Processor Speeds" (LH; 16
// processors, Cholesky at 8): 20–80 MHz.
func Table4(r *Runner, scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Table 4: Speedups with different processor speeds (LH, 16 processors; Cholesky 8)",
		Columns: []string{"MHz", "Jacobi", "TSP", "Water", "Cholesky"},
	}
	speeds := []float64{20, 40, 60, 80}
	na := len(AppNames)
	cells := make([]sweepCell, len(speeds)*na)
	err := r.RunCells(len(cells), func(i int) error {
		mhz := speeds[i/na]
		app := AppNames[i%na]
		spec := DefaultSpec(app, scale)
		spec.ClockMHz = mhz
		spec.Net = network.ATMNet(100, mhz)
		if app == "cholesky" {
			spec.Procs = 8
		}
		res, speedup, err := r.Speedup(spec)
		if err != nil {
			return err
		}
		cells[i] = sweepCell{res, speedup}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for mi, mhz := range speeds {
		row := []string{fmt.Sprintf("%.0f", mhz)}
		for ai := range AppNames {
			row = append(row, fmt.Sprintf("%.2f", cells[mi*na+ai].speedup))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table5 reproduces "Effect on Speedup of Reducing the Page Size to 1024
// bytes" (LH): 8 and 16 processors, 4096- vs 1024-byte pages.
func Table5(r *Runner, scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Table 5: Effect of page size (LH)",
		Columns: []string{"procs/page", "Jacobi", "TSP", "Water", "Cholesky"},
	}
	procCounts := []int{8, 16}
	pageSizes := []int{4096, 1024}
	na := len(AppNames)
	rows := len(procCounts) * len(pageSizes)
	cells := make([]sweepCell, rows*na)
	err := r.RunCells(len(cells), func(i int) error {
		row, ai := i/na, i%na
		spec := DefaultSpec(AppNames[ai], scale)
		spec.Procs = procCounts[row/len(pageSizes)]
		spec.PageSize = pageSizes[row%len(pageSizes)]
		res, speedup, err := r.Speedup(spec)
		if err != nil {
			return err
		}
		cells[i] = sweepCell{res, speedup}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ri, procs := range procCounts {
		for si, ps := range pageSizes {
			rowIdx := ri*len(pageSizes) + si
			row := []string{fmt.Sprintf("%dp/%dB", procs, ps)}
			for ai := range AppNames {
				row = append(row, fmt.Sprintf("%.2f", cells[rowIdx*na+ai].speedup))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// SyncStats reproduces the message-classification statistics quoted in
// Section 6.2: the share of messages used for synchronization and the
// share of time spent waiting on locks, per application (LH, 16
// processors).
func SyncStats(r *Runner, scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Section 6.2 statistics (LH, 16 processors)",
		Columns: []string{"app", "msgs", "sync msgs", "sync %", "grants w/ data", "lock wait %"},
	}
	cells := make([]sweepCell, len(AppNames))
	err := r.RunCells(len(cells), func(i int) error {
		res, speedup, err := r.Speedup(DefaultSpec(AppNames[i], scale))
		if err != nil {
			return err
		}
		cells[i] = sweepCell{res, speedup}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, app := range AppNames {
		st := cells[i].res.Stats
		// mean per-processor share of time spent acquiring locks (the
		// paper's Cholesky metric: "84% of each processor's time")
		var lockShare float64
		for i := range st.PerProc {
			lockShare += st.PerProc[i].LockShare()
		}
		if len(st.PerProc) > 0 {
			lockShare /= float64(len(st.PerProc))
		}
		t.Rows = append(t.Rows, []string{
			app,
			fmt.Sprintf("%d", st.Msgs),
			fmt.Sprintf("%d", st.SyncMsgs),
			fmt.Sprintf("%.0f%%", 100*st.SyncShare()),
			fmt.Sprintf("%d", st.SyncDataMsgs),
			fmt.Sprintf("%.0f%%", 100*lockShare),
		})
	}
	return t, nil
}

// ReacquireExperiment demonstrates Section 6.2's closing observation:
// "When a lock is reacquired by the same processor before another
// processor acquires it, the lazy protocols have an advantage over the
// eager protocols. An eager protocol must distribute diffs at every lock
// release; lazy release consistency permits us to avoid external
// communication when the same lock is reacquired." One processor
// repeatedly locks, writes and unlocks a hot structure that others merely
// cache; the eager protocols flush per release, the lazy ones are silent.
func ReacquireExperiment(procs, rounds int) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Lock reacquisition (one writer, %d reacquires, %d processors caching)", rounds, procs),
		Columns: []string{"protocol", "msgs", "data KB", "cycles"},
	}
	for _, prot := range core.Protocols {
		cfg := core.DefaultConfig()
		cfg.Protocol = prot
		cfg.Procs = procs
		cfg.Net = network.ATMNet(100, core.DefaultClockMHz)
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		a := sys.AllocPage(64)
		lk := sys.NewLock()
		bar := sys.NewBarrier()
		st, err := sys.Run(func(p *core.Proc) {
			_ = p.ReadF64(a) // everyone caches the hot page
			p.Barrier(bar)
			if p.ID() == procs-1 { // a non-manager writer: remote first acquire
				for i := 0; i < rounds; i++ {
					p.Lock(lk)
					p.WriteF64(a, float64(i))
					p.Unlock(lk)
					p.Compute(2_000)
				}
			}
			p.Barrier(bar)
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			prot.String(),
			fmt.Sprintf("%d", st.Msgs),
			fmt.Sprintf("%.1f", st.DataKB()),
			fmt.Sprintf("%d", st.Cycles),
		})
	}
	return t, nil
}

// TaskQueueFigures runs the promoted task-queue workload through the
// standard protocol × processor sweep on ATM — the same three plots the
// paper's four workloads get, for the queue's all-synchronization
// sharing pattern.
func TaskQueueFigures(r *Runner, scale Scale) (*FigureSet, error) {
	return AppFigures(r, "taskqueue", scale, DefaultProcs,
		network.ATMNet(100, core.DefaultClockMHz), "Task queue on ATM")
}

// TaskQueueGrain sweeps the task granularity at a fixed processor count
// (`go run ./cmd/experiments -only taskqueue`): coarse tasks scale,
// fine tasks drown in lock-acquisition latency, and the lazy protocols
// hold their advantage longest. Rows are grains, one speedup
// column per protocol.
func TaskQueueGrain(r *Runner, scale Scale) (*Table, error) {
	const procs = 8
	tasks, grains := 200, []int64{1_000, 10_000, 100_000, 1_000_000}
	switch scale {
	case ScaleBench:
		tasks, grains = 120, []int64{1_000, 10_000, 100_000}
	case ScaleTest:
		tasks, grains = 24, []int64{200, 2_000}
	}
	prots := []core.Protocol{core.LH, core.LI, core.EU}
	t := &Table{
		Title:   fmt.Sprintf("Task-queue granularity (%d tasks, %d processors, ATM) — speedup", tasks, procs),
		Columns: []string{"grain (cycles)"},
	}
	for _, prot := range prots {
		t.Columns = append(t.Columns, prot.String())
	}
	run := func(prot core.Protocol, np int, grain int64) (int64, error) {
		cfg := core.DefaultConfig()
		cfg.Protocol = prot
		cfg.Procs = np
		cfg.Net = network.ATMNet(100, core.DefaultClockMHz)
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return 0, err
		}
		app := taskqueue.New(taskqueue.Params{Tasks: tasks, Grain: grain})
		app.Configure(sys)
		stats, err := sys.Run(func(p *core.Proc) { app.Worker(p) })
		if err != nil {
			return 0, err
		}
		if err := app.Verify(sys); err != nil {
			return 0, fmt.Errorf("taskqueue/%v/%dp grain %d: %w", prot, np, grain, err)
		}
		return int64(stats.Cycles), nil
	}
	cells := make([]float64, len(grains)*len(prots))
	err := r.RunCells(len(cells), func(i int) error {
		grain, prot := grains[i/len(prots)], prots[i%len(prots)]
		base, err := run(prot, 1, grain)
		if err != nil {
			return err
		}
		par, err := run(prot, procs, grain)
		if err != nil {
			return err
		}
		cells[i] = float64(base) / float64(par)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for gi, grain := range grains {
		row := []string{fmt.Sprintf("%d", grain)}
		for pi := range prots {
			row = append(row, fmt.Sprintf("%.2f", cells[gi*len(prots)+pi]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
