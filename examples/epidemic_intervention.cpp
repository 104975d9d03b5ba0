/// Indemics-style epidemic study (Section 2.4): a synthetic 20k-person
/// population, an SEIR epidemic stepped by the compute engine, and the
/// paper's Algorithm 1 intervention ("vaccinate preschoolers when more
/// than 1% of them are sick") expressed through the relational query
/// engine. Compares the intervened epidemic against the baseline.

#include <cstdio>

#include "epi/indemics.h"
#include "epi/network.h"
#include "obs/http.h"
#include "table/query.h"

using namespace mde;           // NOLINT — example brevity
using namespace mde::epi;      // NOLINT

namespace {

EpidemicSim MakeSim(uint64_t seed) {
  PopulationConfig pop;
  pop.num_people = 20000;
  pop.seed = 2014;
  DiseaseConfig disease;
  disease.transmissibility = 0.010;
  disease.initial_infections = 20;
  disease.seed = seed;
  return EpidemicSim(GeneratePopulation(pop), disease);
}

void PrintCurve(const char* label, const std::vector<DailyStats>& history) {
  std::printf("%s\n  day:", label);
  for (size_t d = 9; d < history.size(); d += 30) {
    std::printf("%7zu", history[d].day);
  }
  std::printf("\n  inf:");
  for (size_t d = 9; d < history.size(); d += 30) {
    std::printf("%7zu", history[d].infectious);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  mde::obs::DiagServer::MaybeStartFromEnv();
  std::printf("Indemics-style epidemic intervention (Algorithm 1)\n\n");

  EpidemicSim baseline = MakeSim(7);
  auto base_history = RunWithPolicy(baseline, 300, 1, nullptr).value();

  EpidemicSim treated = MakeSim(7);
  auto treat_history =
      RunWithPolicy(treated, 300, 1, VaccinatePreschoolersPolicy(0.01))
          .value();

  PrintCurve("baseline (no intervention):", base_history);
  PrintCurve("with preschool vaccination:", treat_history);

  size_t vaccinated = 0;
  for (const Person& p : treated.network().people()) {
    if (p.vaccinated) ++vaccinated;
  }
  std::printf("\n%-34s %8s %8s\n", "", "baseline", "policy");
  std::printf("%-34s %8zu %8zu\n", "total ever infected",
              baseline.TotalInfected(), treated.TotalInfected());
  std::printf("%-34s %8zu %8zu\n", "peak simultaneous infectious",
              baseline.PeakInfectious(), treated.PeakInfectious());
  std::printf("%-34s %8d %8zu\n", "doses administered", 0, vaccinated);

  // A post-hoc SQL-style analysis: attack rate by age band.
  std::printf("\nattack rate by age band (policy run):\n");
  table::Table people = treated.PersonTable();
  table::Table bands{table::Schema({{"band", table::DataType::kString},
                                    {"infected", table::DataType::kInt64}})};
  bands.Reserve(people.num_rows());
  for (const table::Row& r : people.rows()) {
    const int64_t age = r[1].AsInt();
    const char* band = age <= 4 ? "preschool" : age <= 18 ? "school" : "adult";
    bands.Append({table::Value(band),
                  table::Value(r[3].AsString() == "S" ? int64_t{0}
                                                      : int64_t{1})});
  }
  auto banded = table::Query(bands)
                    .GroupByAgg({"band"},
                                {{table::AggKind::kCount, "", "n"},
                                 {table::AggKind::kAvg, "infected", "rate"}})
                    .OrderByAsc({"band"})
                    .Execute()
                    .value();
  for (const table::Row& r : banded.rows()) {
    std::printf("  %-10s n=%6lld  rate=%.3f\n", r[0].AsString().c_str(),
                static_cast<long long>(r[1].AsInt()), r[2].AsDouble());
  }
  return 0;
}
