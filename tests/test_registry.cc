/**
 * @file
 * PredictorRegistry: the canonical name -> factory map.
 *
 * The registry's names appear in tables and CLI flags,
 * so their spelling and ordering are contract: figure3Set must match
 * the paper's column order, the estimator ladder must match the
 * ablation's column order, and an unknown family must be a fatal user
 * error rather than a nullptr.
 */

#include <gtest/gtest.h>

#include "exp/experiment.hh"
#include "pred/registry.hh"

using namespace dvfs;
using pred::BaseEstimator;
using pred::ModelSpec;
using pred::PredictorRegistry;

TEST(PredictorRegistry, FamiliesAreRegisteredInOrder)
{
    const auto &reg = PredictorRegistry::instance();
    EXPECT_EQ(reg.families(),
              (std::vector<std::string>{"M+CRIT", "COOP", "DEP",
                                        "DEP/per-epoch"}));
    for (const auto &f : reg.families())
        EXPECT_TRUE(reg.has(f)) << f;
    EXPECT_FALSE(reg.has("DEP+BURST"));  // a variant, not a family
    EXPECT_FALSE(reg.has(""));
}

TEST(PredictorRegistry, MakeConstructsTheRequestedVariant)
{
    const auto &reg = PredictorRegistry::instance();
    EXPECT_EQ(reg.make("M+CRIT", {BaseEstimator::Crit, false})->name(),
              "M+CRIT");
    EXPECT_EQ(reg.make("COOP", {BaseEstimator::Crit, true})->name(),
              "COOP(CRIT+BURST)");
    EXPECT_EQ(reg.make("DEP", {BaseEstimator::Crit, true})->name(),
              "DEP+BURST");
    EXPECT_EQ(
        reg.make("DEP/per-epoch", {BaseEstimator::Crit, true})->name(),
        "DEP+BURST(per-epoch CTP)");
}

TEST(PredictorRegistry, MakeMatchesDirectConstruction)
{
    // Registry-built and hand-built predictors must be the same code:
    // identical names and identical predictions on a real record.
    auto params = wl::syntheticSmall(3, 60);
    auto out = exp::runFixed(params, Frequency::ghz(1.0));
    const Frequency target = Frequency::ghz(4.0);

    const auto &reg = PredictorRegistry::instance();
    const ModelSpec spec{BaseEstimator::Crit, true};

    pred::MCritPredictor mcrit(spec);
    pred::CoopPredictor coop(spec);
    pred::DepPredictor dep(spec, true);

    EXPECT_EQ(reg.make("M+CRIT", spec)->predict(out.record, target),
              mcrit.predict(out.record, target));
    EXPECT_EQ(reg.make("COOP", spec)->predict(out.record, target),
              coop.predict(out.record, target));
    EXPECT_EQ(reg.make("DEP", spec)->predict(out.record, target),
              dep.predict(out.record, target));
}

TEST(PredictorRegistry, Figure3SetMatchesPaperOrder)
{
    auto zoo = PredictorRegistry::instance().figure3Set();
    std::vector<std::string> names;
    for (const auto &p : zoo)
        names.push_back(p->name());
    EXPECT_EQ(names, (std::vector<std::string>{
                         "M+CRIT", "M+CRIT+BURST", "COOP(CRIT)",
                         "COOP(CRIT+BURST)", "DEP", "DEP+BURST"}));

    // A second materialisation returns the same zoo (fresh instances).
    auto again = pred::PredictorRegistry::instance().figure3Set();
    ASSERT_EQ(again.size(), zoo.size());
    for (std::size_t i = 0; i < zoo.size(); ++i) {
        EXPECT_EQ(again[i]->name(), zoo[i]->name());
        EXPECT_NE(again[i].get(), zoo[i].get());
    }
}

TEST(PredictorRegistry, EstimatorLadderMatchesAblationOrder)
{
    auto ladder = PredictorRegistry::instance().estimatorLadder();
    ASSERT_EQ(ladder.size(), 8u);
    // STALL, STALL+BURST, LL, LL+BURST, CRIT, CRIT+BURST, ORACLE,
    // ORACLE+BURST — the ablation's column order, as DEP variants.
    EXPECT_EQ(ladder[0]->name(), "DEP[STALL]");
    EXPECT_EQ(ladder[1]->name(), "DEP+BURST[STALL]");
    EXPECT_EQ(ladder[4]->name(), "DEP");
    EXPECT_EQ(ladder[5]->name(), "DEP+BURST");
    EXPECT_EQ(ladder[6]->name(), "DEP[ORACLE]");
    EXPECT_EQ(ladder[7]->name(), "DEP+BURST[ORACLE]");
}

TEST(PredictorRegistryDeathTest, UnknownFamilyIsFatal)
{
    EXPECT_DEATH(
        {
            PredictorRegistry::instance().make(
                "NONSUCH", ModelSpec{BaseEstimator::Crit, false});
        },
        "unknown predictor family");
}
