#include "trace/replay.hh"

#include "pred/registry.hh"

namespace dvfs::trace {

ReplayEngine::ReplayEngine()
    : _predictors(pred::PredictorRegistry::instance().figure3Set())
{
}

ReplayEngine::ReplayEngine(
    std::vector<std::unique_ptr<pred::Predictor>> predictors)
    : _predictors(std::move(predictors))
{
}

std::vector<std::string>
ReplayEngine::predictorNames() const
{
    std::vector<std::string> names;
    names.reserve(_predictors.size());
    for (const auto &p : _predictors)
        names.push_back(p->name());
    return names;
}

std::vector<ReplayCell>
ReplayEngine::evaluate(const pred::RunRecord &base,
                       const std::vector<ReplayTarget> &targets) const
{
    std::vector<ReplayCell> cells;
    cells.reserve(targets.size() * _predictors.size());
    for (const ReplayTarget &t : targets) {
        for (const auto &p : _predictors) {
            ReplayCell cell;
            cell.predictor = p->name();
            cell.target = t.freq;
            cell.predicted = p->predict(base, t.freq);
            cell.actual = t.actual;
            if (t.actual != 0) {
                cell.error = pred::Predictor::relativeError(
                    cell.predicted, t.actual);
            }
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

} // namespace dvfs::trace
