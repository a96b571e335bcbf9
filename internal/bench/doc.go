// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§VII). It provides the approach
// registry (Table II), timed size sweeps with per-approach time budgets
// (the quadratic baselines are cut off rather than left to run for hours,
// mirroring the paper's practice of dropping approaches that are orders of
// magnitude slower), and plain-text/CSV series printers.
//
// Beyond the paper it adds two extension-tier experiments:
// trace-overhead (the execution trace, off vs on) and segment-vs-heap
// (mmap segment store vs heap catalog). Every LAWA measurement runs the
// module's one execution path — core.Apply for the paper's two-relation
// experiments, the engine's cursor plan for the rest; the A/B
// experiments that compared it with the stacks it replaced went with
// those stacks. Speed claims are measured in benchmark/, not here.
//
// Scaling: the paper's largest runs (50M tuples on a 64 GB Xeon box) are
// parameterized down by a scale factor (Config.Scale; cmd/tpbench -scale),
// reported in every Result so recorded numbers always carry their scale.
// Shapes — who wins, by what factor, where crossovers fall — are
// preserved; absolute milliseconds are not claimed.
//
// Paper map: §VII end to end (Figs. 7–11, Tables II–IV); run any
// experiment with cmd/tpbench. See docs/PAPER_MAP.md.
package bench
