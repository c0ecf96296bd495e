#include "workload/io.h"

#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "common/csv.h"

namespace auctionride {

namespace {

std::string Num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

bool ParseInt(const std::string& s, long* out) {
  char* end = nullptr;
  *out = std::strtol(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && end != s.c_str();
}

Status ParseIntField(const std::string& s, const std::string& line,
                     const char* field, long* out) {
  if (!ParseInt(s, out)) {
    return Status::InvalidArgument(line + ": " + field + " '" + s +
                                   "' is not an integer");
  }
  return Status::Ok();
}

}  // namespace

Status SaveWorkloadCsv(const Workload& workload, const std::string& path) {
  StatusOr<CsvWriter> writer = CsvWriter::Open(path);
  if (!writer.ok()) return writer.status();
  for (const Order& o : workload.orders) {
    writer->WriteRow({"order", std::to_string(o.id),
                      std::to_string(o.origin),
                      std::to_string(o.destination),
                      Num(o.issue_time_s.value()),
                      Num(o.shortest_distance_m.value()),
                      Num(o.shortest_time_s.value()),
                      Num(o.max_wasted_time_s.value()),
                      Num(o.valuation.value()), Num(o.bid.value())});
  }
  for (const VehicleSpawn& v : workload.vehicles) {
    writer->WriteRow({"vehicle", std::to_string(v.vehicle.id),
                      std::to_string(v.vehicle.next_node),
                      std::to_string(v.vehicle.capacity),
                      Num(v.online_s.value()), Num(v.offline_s.value())});
  }
  return writer->Close();
}

StatusOr<Workload> LoadWorkloadCsv(const std::string& path,
                                   const RoadNetwork& network) {
  StatusOr<std::vector<std::vector<std::string>>> rows = ReadCsv(path);
  if (!rows.ok()) return rows.status();

  Workload workload;
  std::unordered_set<long> order_ids;
  std::unordered_set<long> vehicle_ids;
  for (std::size_t i = 0; i < rows->size(); ++i) {
    const std::vector<std::string>& row = (*rows)[i];
    const std::string line = "row " + std::to_string(i + 1);
    if (row.empty()) continue;
    if (row[0] == "order") {
      if (row.size() != 10) {
        return Status::InvalidArgument(line + ": order needs 9 fields");
      }
      Order o;
      long id = 0;
      long origin = 0;
      long dest = 0;
      // Parse into raw doubles, then wrap into the strong unit types once
      // every field is known-finite.
      double issue_time = 0;
      double shortest_distance = 0;
      double shortest_time = 0;
      double max_wasted_time = 0;
      double valuation = 0;
      double bid = 0;
      struct DoubleField {
        int column;
        const char* name;
        double* out;
      };
      const DoubleField doubles[] = {
          {4, "issue_time_s", &issue_time},
          {5, "shortest_distance_m", &shortest_distance},
          {6, "shortest_time_s", &shortest_time},
          {7, "max_wasted_time_s", &max_wasted_time},
          {8, "valuation", &valuation},
          {9, "bid", &bid},
      };
      Status parsed = ParseIntField(row[1], line, "order id", &id);
      if (parsed.ok()) parsed = ParseIntField(row[2], line, "origin", &origin);
      if (parsed.ok()) {
        parsed = ParseIntField(row[3], line, "destination", &dest);
      }
      for (const DoubleField& f : doubles) {
        if (!parsed.ok()) break;
        parsed = ParseFiniteDouble(row[static_cast<std::size_t>(f.column)],
                                   line, f.name, f.out);
      }
      if (!parsed.ok()) return parsed;
      if (origin < 0 || origin >= network.num_nodes() || dest < 0 ||
          dest >= network.num_nodes()) {
        return Status::OutOfRange(line + ": node id outside the network");
      }
      if (!order_ids.insert(id).second) {
        return Status::InvalidArgument(line + ": duplicate order id " +
                                       std::to_string(id));
      }
      o.id = static_cast<OrderId>(id);
      o.origin = static_cast<NodeId>(origin);
      o.destination = static_cast<NodeId>(dest);
      o.issue_time_s = Seconds(issue_time);
      o.shortest_distance_m = Meters(shortest_distance);
      o.shortest_time_s = Seconds(shortest_time);
      o.max_wasted_time_s = Seconds(max_wasted_time);
      o.valuation = Money(valuation);
      o.bid = Money(bid);
      workload.orders.push_back(o);
    } else if (row[0] == "vehicle") {
      if (row.size() != 6) {
        return Status::InvalidArgument(line + ": vehicle needs 5 fields");
      }
      VehicleSpawn spawn;
      long id = 0;
      long node = 0;
      long capacity = 0;
      Status parsed = ParseIntField(row[1], line, "vehicle id", &id);
      if (parsed.ok()) parsed = ParseIntField(row[2], line, "node", &node);
      if (parsed.ok()) {
        parsed = ParseIntField(row[3], line, "capacity", &capacity);
      }
      double online = 0;
      double offline = 0;
      if (parsed.ok()) {
        parsed = ParseFiniteDouble(row[4], line, "online_s", &online);
      }
      if (parsed.ok()) {
        parsed = ParseFiniteDouble(row[5], line, "offline_s", &offline);
      }
      if (!parsed.ok()) return parsed;
      spawn.online_s = Seconds(online);
      spawn.offline_s = Seconds(offline);
      if (node < 0 || node >= network.num_nodes()) {
        return Status::OutOfRange(line + ": node id outside the network");
      }
      if (capacity <= 0) {
        return Status::InvalidArgument(line + ": capacity must be positive");
      }
      if (spawn.offline_s < spawn.online_s) {
        return Status::InvalidArgument(
            line + ": offline_s " + Num(spawn.offline_s.value()) +
            " precedes online_s " + Num(spawn.online_s.value()));
      }
      if (!vehicle_ids.insert(id).second) {
        return Status::InvalidArgument(line + ": duplicate vehicle id " +
                                       std::to_string(id));
      }
      spawn.vehicle.id = static_cast<VehicleId>(id);
      spawn.vehicle.next_node = static_cast<NodeId>(node);
      spawn.vehicle.capacity = static_cast<int>(capacity);
      workload.vehicles.push_back(spawn);
    } else {
      return Status::InvalidArgument(line + ": unknown record '" + row[0] +
                                     "'");
    }
  }
  return workload;
}

}  // namespace auctionride
