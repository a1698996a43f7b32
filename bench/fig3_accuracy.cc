/**
 * @file
 * Figure 3 reproduction: per-benchmark DVFS prediction errors for
 * M+CRIT, COOP and DEP, each with and without BURST.
 *
 * (a) --dir=up   : base 1 GHz, targets 2/3/4 GHz
 * (b) --dir=down : base 4 GHz, targets 3/2/1 GHz
 * --dir=both (default) prints both.
 *
 * For every benchmark the harness obtains the ground truth at the base
 * and at each target frequency, feeds the base-run observations to
 * each predictor, and reports the signed relative error
 * estimated/actual-1 (negative = execution time underestimated), plus
 * the average absolute error across benchmarks — the paper's headline
 * metric (6% for DEP+BURST at 4 GHz from 1 GHz; 27% for M+CRIT).
 *
 * The (benchmark x frequency) ground-truth grid is an ObservedGrid:
 * with --trace-dir it replays recorded .dvfstrace files when a
 * complete set is present (recording one first otherwise), without it
 * the grid simulates on the sweep engine — both directions share the
 * same four operating points, so each cell is simulated exactly once
 * and cells run concurrently. Results are aggregated by cell index, so
 * the tables are identical at any worker count, and the replayed and
 * simulated paths produce bit-identical errors.
 *
 * Predictors come from the PredictorRegistry; the table's predictor
 * column uses the registry's canonical names.
 *
 * Usage: fig3_accuracy [--dir=up|down|both] [--only=<benchmark>]
 *                      [--trace-dir=DIR] [--workers=N] [--progress]
 */

#include <iostream>
#include <map>
#include <vector>

#include "bench_util.hh"
#include "exp/sweep/trace_cache.hh"
#include "exp/table.hh"
#include "pred/registry.hh"

using namespace dvfs;

namespace {

struct Direction {
    const char *label;
    Frequency base;
    std::vector<Frequency> targets;
};

void
runDirection(const Direction &dir, const exp::sweep::ObservedGrid &grid)
{
    std::cout << "\nFigure 3 (" << dir.label
              << "): base " << dir.base.toString() << "\n\n";

    auto predictors = pred::PredictorRegistry::instance().figure3Set();

    // errors[predictor][target] -> per-benchmark list
    std::map<std::string, std::map<std::uint32_t, std::vector<double>>>
        errors;

    std::vector<std::string> headers = {"benchmark", "predictor"};
    for (auto t : dir.targets)
        headers.push_back("err @" + t.toString());
    exp::Table table(headers);

    for (std::size_t w = 0; w < grid.spec.workloads.size(); ++w) {
        const auto &params = grid.spec.workloads[w];

        const auto &base_cell = grid.at(w, dir.base);
        std::map<std::uint32_t, Tick> actual;
        for (auto t : dir.targets)
            actual[t.toMHz()] = grid.at(w, t).totalTime;

        bool first = true;
        for (const auto &p : predictors) {
            std::vector<std::string> row = {first ? params.name : "",
                                            p->name()};
            first = false;
            for (auto t : dir.targets) {
                Tick est = p->predict(base_cell.record(), t);
                double err =
                    pred::Predictor::relativeError(est, actual[t.toMHz()]);
                errors[p->name()][t.toMHz()].push_back(err);
                row.push_back(exp::Table::pct(err));
            }
            table.addRow(std::move(row));
        }
        table.addSeparator();
    }

    // Average absolute error rows.
    for (const auto &p : predictors) {
        std::vector<std::string> row = {"avg |err|", p->name()};
        for (auto t : dir.targets)
            row.push_back(
                exp::Table::pct(exp::meanAbs(errors[p->name()][t.toMHz()])));
        table.addRow(std::move(row));
    }

    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::FlagSet args("fig3_accuracy",
                        "per-benchmark DVFS prediction errors "
                        "(Figure 3)");
    args.add("dir", "up|down|both",
             "prediction direction(s) to print (default both)")
        .add("only", "NAME", "run a single DaCapo benchmark")
        .addTraceDir("replay recorded .dvfstrace files from DIR "
                     "(recording them first if absent)")
        .addWorkers()
        .addBool("progress", "progress/ETA lines on stderr");
    args.parse(argc, argv);

    const std::string dir = args.get("dir", "both");
    const std::string only = args.get("only");
    const std::string trace_dir = args.get("trace-dir");

    Direction up{"a: low-to-high", Frequency::ghz(1.0),
                 {Frequency::ghz(2.0), Frequency::ghz(3.0),
                  Frequency::ghz(4.0)}};
    Direction down{"b: high-to-low", Frequency::ghz(4.0),
                   {Frequency::ghz(3.0), Frequency::ghz(2.0),
                    Frequency::ghz(1.0)}};

    // Both directions read the same four operating points, so one
    // grid covers them (the serial harness simulated each twice).
    exp::sweep::SweepSpec spec = bench::fig3GridSpec(0, only);
    if (spec.workloads.empty()) {
        std::cerr << "no benchmark matches --only=" << only << "\n";
        return 1;
    }

    exp::sweep::SweepRunner::Options opts;
    opts.workers = bench::workersFromArgs(args);
    opts.progress = args.has("progress");
    opts.label = "fig3";
    auto grid = exp::sweep::observeGrid(spec, opts, trace_dir);
    if (!trace_dir.empty()) {
        std::cout << (grid.replayed ? "replaying traces from "
                                    : "recorded traces to ")
                  << trace_dir << "\n";
    }

    if (dir == "up" || dir == "both")
        runDirection(up, grid);
    if (dir == "down" || dir == "both")
        runDirection(down, grid);
    return 0;
}
