#include "roadnet/io.h"

#include <charconv>
#include <cstdio>
#include <vector>

#include "common/csv.h"

namespace auctionride {

namespace {

std::string FormatNumber(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

bool ParseInt(const std::string& s, int64_t* out) {
  const auto result =
      std::from_chars(s.data(), s.data() + s.size(), *out);
  return result.ec == std::errc() && result.ptr == s.data() + s.size();
}

}  // namespace

Status SaveNetworkCsv(const RoadNetwork& network, const std::string& path) {
  if (!network.built()) {
    return Status::FailedPrecondition("network must be Build() before save");
  }
  StatusOr<CsvWriter> writer = CsvWriter::Open(path);
  if (!writer.ok()) return writer.status();
  for (NodeId n = 0; n < network.num_nodes(); ++n) {
    const Point& p = network.position(n);
    writer->WriteRow(
        {"node", std::to_string(n), FormatNumber(p.x), FormatNumber(p.y)});
  }
  for (NodeId n = 0; n < network.num_nodes(); ++n) {
    for (const Arc& a : network.OutArcs(n)) {
      writer->WriteRow({"edge", std::to_string(n), std::to_string(a.head),
                        FormatNumber(a.length_m)});
    }
  }
  return writer->Close();
}

StatusOr<RoadNetwork> LoadNetworkCsv(const std::string& path) {
  StatusOr<std::vector<std::vector<std::string>>> rows = ReadCsv(path);
  if (!rows.ok()) return rows.status();

  // First pass: collect nodes (ids must be dense 0..n-1).
  struct NodeRec {
    int64_t id;
    Point p;
  };
  std::vector<NodeRec> nodes;
  struct EdgeRec {
    int64_t from, to;
    double length;
  };
  std::vector<EdgeRec> edges;
  for (std::size_t i = 0; i < rows->size(); ++i) {
    const std::vector<std::string>& row = (*rows)[i];
    const std::string line = "row " + std::to_string(i + 1);
    if (row.empty()) continue;
    if (row[0] == "node") {
      if (row.size() != 4) {
        return Status::InvalidArgument(line + ": node needs id,x,y");
      }
      NodeRec rec;
      if (!ParseInt(row[1], &rec.id)) {
        return Status::InvalidArgument(line + ": bad node id");
      }
      // A non-finite coordinate would zero min_detour_ratio() and with it
      // every geometric pruning bound.
      Status parsed = ParseFiniteDouble(row[2], line, "x", &rec.p.x);
      if (parsed.ok()) parsed = ParseFiniteDouble(row[3], line, "y", &rec.p.y);
      if (!parsed.ok()) return parsed;
      nodes.push_back(rec);
    } else if (row[0] == "edge") {
      if (row.size() != 4) {
        return Status::InvalidArgument(line + ": edge needs from,to,length");
      }
      EdgeRec rec;
      if (!ParseInt(row[1], &rec.from) || !ParseInt(row[2], &rec.to)) {
        return Status::InvalidArgument(line + ": bad edge endpoints");
      }
      const Status parsed =
          ParseFiniteDouble(row[3], line, "length", &rec.length);
      if (!parsed.ok()) return parsed;
      if (rec.length < 0) {
        return Status::InvalidArgument(line + ": negative edge length");
      }
      edges.push_back(rec);
    } else {
      return Status::InvalidArgument(line + ": unknown record '" + row[0] +
                                     "'");
    }
  }
  if (nodes.empty()) return Status::InvalidArgument("no nodes in file");

  const auto n = static_cast<int64_t>(nodes.size());
  std::vector<Point> positions(nodes.size());
  std::vector<char> seen(nodes.size(), 0);
  for (const NodeRec& rec : nodes) {
    if (rec.id < 0 || rec.id >= n) {
      return Status::InvalidArgument("node id " + std::to_string(rec.id) +
                                     " not dense in [0, " +
                                     std::to_string(n) + ")");
    }
    if (seen[static_cast<std::size_t>(rec.id)]) {
      return Status::InvalidArgument("duplicate node id " +
                                     std::to_string(rec.id));
    }
    seen[static_cast<std::size_t>(rec.id)] = 1;
    positions[static_cast<std::size_t>(rec.id)] = rec.p;
  }

  RoadNetwork network;
  for (const Point& p : positions) network.AddNode(p);
  for (const EdgeRec& rec : edges) {
    if (rec.from < 0 || rec.from >= n || rec.to < 0 || rec.to >= n) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
    network.AddEdge(static_cast<NodeId>(rec.from),
                    static_cast<NodeId>(rec.to), rec.length);
  }
  network.Build();
  return network;
}

}  // namespace auctionride
