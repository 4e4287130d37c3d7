// City-scale reduction equivalence: one child document per district,
// reduced by runtime/city_reduce, must be *byte-identical* to the
// in-process `pw_run city` document — including the merged `metrics`
// block. This is the in-process face of the CI `city-smoke` job (which
// re-proves the same property across real processes via `pw_run --city`).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/json_parse.h"
#include "runtime/city_reduce.h"
#include "runtime/experiments/all.h"
#include "runtime/runner.h"

namespace politewifi {
namespace {

using common::Json;

/// Runs the city experiment quietly (narration swallowed), metrics on.
runtime::RunExperimentResult run_city(std::vector<common::Flag> flags) {
  runtime::register_builtin_experiments();
  runtime::RunOptions options;
  options.metrics = true;
  ::testing::internal::CaptureStdout();
  auto result =
      runtime::run_experiment("city", flags, /*smoke=*/true, options);
  ::testing::internal::GetCapturedStdout();
  return result;
}

Json parse_or_die(const std::string& text) {
  std::string error;
  auto parsed = common::parse_json(text, &error);
  EXPECT_TRUE(parsed.has_value()) << error;
  return parsed.has_value() ? std::move(*parsed) : Json();
}

/// The property itself, parameterized on the extra experiment flags:
/// reduce(4 x district=k) == district=-1, byte for byte.
void expect_reduction_matches_in_process(
    const std::vector<common::Flag>& base) {
  const auto whole = run_city(base);
  ASSERT_EQ(whole.exit_code, 0) << whole.error;

  std::vector<Json> children;
  for (int k = 0; k < 4; ++k) {
    auto flags = base;
    flags.push_back({"district", std::to_string(k)});
    const auto child = run_city(flags);
    ASSERT_EQ(child.exit_code, 0) << child.error;
    children.push_back(parse_or_die(child.json));
  }

  std::string error;
  const auto reduced = runtime::reduce_city_documents(children, &error);
  ASSERT_TRUE(reduced.has_value()) << error;
  EXPECT_EQ(reduced->dump() + "\n", whole.json);
}

// The suite runs at half smoke scale to stay quick; smoke resolves
// districts=4.
const std::vector<common::Flag> kQuick = {{"scale", "0.005"}};

TEST(CityReduction, ChildDocumentsReduceToTheInProcessBytes) {
  expect_reduction_matches_in_process(kQuick);
}

// --- Reducer validation on synthetic documents --------------------------------

Json district_entry(int k) {
  Json entry = Json::object();
  entry["district"] = k;
  entry["population"] = 10;
  entry["discovered"] = 8;
  entry["responded"] = 8;
  entry["distance_m"] = 1000.0;
  entry["elapsed_s"] = 42.5;
  return entry;
}

Json child_doc(int k, int districts, std::int64_t seed = 77) {
  Json params = Json::object();
  params["district"] = k;
  params["districts"] = districts;
  params["scale"] = 0.01;
  Json results = Json::object();
  Json list = Json::array();
  list.push_back(district_entry(k));
  results["survey"] = runtime::aggregate_city_survey(list);
  results["districts"] = std::move(list);
  Json doc = Json::object();
  doc["experiment"] = "city";
  doc["seed"] = seed;
  doc["smoke"] = true;
  doc["params"] = std::move(params);
  doc["results"] = std::move(results);
  doc["failed"] = false;
  return doc;
}

TEST(CityReducer, AcceptsChildrenInAnyOrder) {
  std::vector<Json> children;
  children.push_back(child_doc(1, 2));
  children.push_back(child_doc(0, 2));
  std::string error;
  const auto doc = runtime::reduce_city_documents(children, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("params")->find("district")->as_int(), -1);
  const Json& list = *doc->find("results")->find("districts");
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list.at(0).find("district")->as_int(), 0);
  EXPECT_EQ(list.at(1).find("district")->as_int(), 1);
  EXPECT_EQ(doc->find("results")
                ->find("survey")
                ->find("discovered")
                ->as_int(),
            16);
}

TEST(CityReducer, RejectsDuplicateDistricts) {
  std::vector<Json> children{child_doc(0, 2), child_doc(0, 2)};
  std::string error;
  EXPECT_FALSE(runtime::reduce_city_documents(children, &error).has_value());
  EXPECT_NE(error.find("0..D-1"), std::string::npos);
}

TEST(CityReducer, RejectsDisagreeingSeeds) {
  std::vector<Json> children{child_doc(0, 2, 77), child_doc(1, 2, 78)};
  std::string error;
  EXPECT_FALSE(runtime::reduce_city_documents(children, &error).has_value());
  EXPECT_NE(error.find("disagree"), std::string::npos);
}

TEST(CityReducer, RejectsWrongDistrictCount) {
  // Children believing in 3 districts but only 2 documents present.
  std::vector<Json> children{child_doc(0, 3), child_doc(1, 3)};
  std::string error;
  EXPECT_FALSE(runtime::reduce_city_documents(children, &error).has_value());
}

TEST(CityReducer, RejectsPartialMetrics) {
  Json with_metrics = child_doc(0, 2);
  with_metrics["metrics"] = Json::object();
  std::vector<Json> children{std::move(with_metrics), child_doc(1, 2)};
  std::string error;
  EXPECT_FALSE(runtime::reduce_city_documents(children, &error).has_value());
  EXPECT_NE(error.find("metrics"), std::string::npos);
}

TEST(CityReducer, FailureInOneDistrictFailsTheSurvey) {
  Json failing = child_doc(1, 2);
  failing["failed"] = true;
  std::vector<Json> children{child_doc(0, 2), std::move(failing)};
  std::string error;
  const auto doc = runtime::reduce_city_documents(children, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_TRUE(doc->find("failed")->as_bool());
}

}  // namespace
}  // namespace politewifi
