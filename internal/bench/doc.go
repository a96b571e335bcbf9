// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§VII), and nothing else. It
// provides the approach registry (Table II), timed size sweeps with
// per-approach time budgets (the quadratic baselines are cut off rather
// than left to run for hours, mirroring the paper's practice of dropping
// approaches that are orders of magnitude slower), a plain-text table
// printer and one machine-readable output (WriteJSON).
//
// LAWA is measured through core.Apply, the module's one two-relation
// driver, against the four baselines on the paper's dataset shapes. The
// engine, the query service and the segment tier are measured by the
// standing benchmark in benchmark/, not here.
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
