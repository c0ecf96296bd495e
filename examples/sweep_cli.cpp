// Parameter-sweep CLI: run the round-based simulation across a sweep of one
// control variable (the paper's Table II knobs) for both mechanisms and emit
// a CSV — the workhorse for producing custom figures beyond the bundled
// benches.
//
// Usage:
//   sweep_cli --var alpha --values 2.5,3.0,3.5,4.0
//             --orders 500 --vehicles 700 --out /tmp/sweep.csv
//   --var one of: alpha | gamma | trnd | cr (cr enables pricing)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/csv.h"
#include "roadnet/builder.h"
#include "roadnet/nearest_node.h"
#include "sim/simulator.h"
#include "workload/generator.h"

using namespace auctionride;

namespace {

std::vector<double> ParseValues(const std::string& csv) {
  std::vector<double> values;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string token =
        csv.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!token.empty()) values.push_back(std::atof(token.c_str()));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

std::string Num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string var = "alpha";
  std::string values_arg = "2.5,3.0,3.5,4.0";
  std::string out_path = "/tmp/auctionride_sweep.csv";
  int num_orders = 400;
  int num_vehicles = 560;
  uint64_t seed = 42;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--var") var = argv[i + 1];
    if (flag == "--values") values_arg = argv[i + 1];
    if (flag == "--orders") num_orders = std::atoi(argv[i + 1]);
    if (flag == "--vehicles") num_vehicles = std::atoi(argv[i + 1]);
    if (flag == "--seed") seed = std::strtoull(argv[i + 1], nullptr, 10);
    if (flag == "--out") out_path = argv[i + 1];
  }
  const std::vector<double> values = ParseValues(values_arg);
  if (values.empty() || (var != "alpha" && var != "gamma" && var != "trnd" &&
                         var != "cr")) {
    std::fprintf(stderr,
                 "usage: sweep_cli --var alpha|gamma|trnd|cr --values a,b,c "
                 "[--orders N] [--vehicles N] [--seed S] [--out path]\n");
    return 2;
  }

  std::printf("building network and oracle...\n");
  RoadNetwork network = BuildBeijingLikeNetwork(/*seed=*/7);
  DistanceOracle oracle(&network);
  NearestNodeIndex nearest(&network, 400);

  StatusOr<CsvWriter> writer = CsvWriter::Open(out_path);
  if (!writer.ok()) {
    std::fprintf(stderr, "%s\n", writer.status().ToString().c_str());
    return 1;
  }
  writer->WriteRow({"var", "value", "mechanism", "u_auc", "u_plf",
                    "dispatch_rate", "mean_round_s", "max_round_s"});

  for (double value : values) {
    for (MechanismKind kind :
         {MechanismKind::kGreedy, MechanismKind::kRank}) {
      WorkloadOptions wl;
      wl.seed = seed;
      wl.num_orders = num_orders;
      wl.num_vehicles = num_vehicles;
      wl.gamma = var == "gamma" ? value : 1.5;

      EngineOptions options;
      options.mechanism = kind;
      options.auction.alpha_d_per_km = var == "alpha" ? value : 3.0;
      options.auction.beta_d_per_km = options.auction.alpha_d_per_km;
      options.round_duration_s = Seconds(var == "trnd" ? value : 10.0);
      if (var == "cr") {
        options.auction.charge_ratio = value;
        options.run_pricing = true;
      }

      const Workload workload = GenerateWorkload(wl, oracle, nearest);
      const SimResult result = RunSimulation(&oracle, workload, options);
      std::printf("%s=%.2f %-12s U_auc=%9.2f U_plf=%9.2f rate=%.3f\n",
                  var.c_str(), value,
                  std::string(MechanismName(kind)).c_str(),
                  result.total_utility.value(),
                  result.platform_utility.value(),
                  result.dispatch_rate());
      writer->WriteRow({var, Num(value),
                        std::string(MechanismName(kind)),
                        Num(result.total_utility.value()),
                        Num(result.platform_utility.value()),
                        Num(result.dispatch_rate()),
                        Num(result.mean_dispatch_seconds.value()),
                        Num(result.max_dispatch_seconds.value())});
    }
  }
  const Status closed = writer->Close();
  if (!closed.ok()) {
    std::fprintf(stderr, "%s\n", closed.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
