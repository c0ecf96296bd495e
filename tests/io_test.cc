#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/csv.h"
#include "roadnet/dijkstra.h"
#include "roadnet/io.h"
#include "testutil.h"

namespace auctionride {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(CsvTest, RoundTrip) {
  const std::string path = TempPath("roundtrip.csv");
  {
    StatusOr<CsvWriter> writer = CsvWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    writer->WriteRow({"a", "b", "c"});
    writer->WriteRow({"1", "2.5", ""});
    ASSERT_TRUE(writer->Close().ok());
  }
  StatusOr<std::vector<std::vector<std::string>>> rows = ReadCsv(path);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"1", "2.5", ""}));
}

TEST(CsvTest, MissingFileIsNotFound) {
  StatusOr<std::vector<std::vector<std::string>>> rows =
      ReadCsv("/nonexistent/definitely/missing.csv");
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kNotFound);
}

TEST(NetworkIoTest, SaveLoadRoundTripPreservesDistances) {
  RoadNetwork original = testutil::LatticeNetwork(6, 5, 300);
  const std::string path = TempPath("net_roundtrip.csv");
  ASSERT_TRUE(SaveNetworkCsv(original, path).ok());

  StatusOr<RoadNetwork> loaded = LoadNetworkCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_nodes(), original.num_nodes());
  ASSERT_EQ(loaded->num_edges(), original.num_edges());

  DijkstraSearch a(&original);
  DijkstraSearch b(&*loaded);
  for (NodeId s = 0; s < original.num_nodes(); s += 7) {
    for (NodeId t = 0; t < original.num_nodes(); t += 5) {
      EXPECT_NEAR(a.ShortestDistance(s, t), b.ShortestDistance(s, t), 1e-3);
    }
  }
  for (NodeId n = 0; n < original.num_nodes(); ++n) {
    EXPECT_NEAR(loaded->position(n).x, original.position(n).x, 1e-3);
    EXPECT_NEAR(loaded->position(n).y, original.position(n).y, 1e-3);
  }
}

TEST(NetworkIoTest, RejectsMalformedRows) {
  const std::string path = TempPath("bad.csv");
  {
    StatusOr<CsvWriter> writer = CsvWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    writer->WriteRow({"node", "0", "1.0"});  // missing y
    ASSERT_TRUE(writer->Close().ok());
  }
  StatusOr<RoadNetwork> loaded = LoadNetworkCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetworkIoTest, RejectsNonDenseNodeIds) {
  const std::string path = TempPath("sparse_ids.csv");
  {
    StatusOr<CsvWriter> writer = CsvWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    writer->WriteRow({"node", "0", "0", "0"});
    writer->WriteRow({"node", "5", "1", "1"});  // gap
    ASSERT_TRUE(writer->Close().ok());
  }
  EXPECT_FALSE(LoadNetworkCsv(path).ok());
}

TEST(NetworkIoTest, RejectsDanglingEdges) {
  const std::string path = TempPath("dangling.csv");
  {
    StatusOr<CsvWriter> writer = CsvWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    writer->WriteRow({"node", "0", "0", "0"});
    writer->WriteRow({"edge", "0", "3", "10"});
    ASSERT_TRUE(writer->Close().ok());
  }
  EXPECT_FALSE(LoadNetworkCsv(path).ok());
}

// strtod accepts "nan" and "inf"; the loader must reject both with a
// Status. A NaN length would trip RoadNetwork::AddEdge's length check and
// abort, an infinite one is no road, and a NaN coordinate zeroes the
// min-detour ratio and with it every geometric pruning bound.
StatusCode LoadTwoNodeNetwork(const char* name, const std::string& x1,
                              const std::string& length) {
  const std::string path = TempPath(name);
  {
    StatusOr<CsvWriter> writer = CsvWriter::Open(path);
    EXPECT_TRUE(writer.ok());
    writer->WriteRow({"node", "0", "0", "0"});
    writer->WriteRow({"node", "1", x1, "0"});
    writer->WriteRow({"edge", "0", "1", length});
    EXPECT_TRUE(writer->Close().ok());
  }
  return LoadNetworkCsv(path).status().code();
}

TEST(NetworkIoTest, AcceptsFiniteFields) {
  EXPECT_EQ(LoadTwoNodeNetwork("finite.csv", "100", "100"), StatusCode::kOk);
}

TEST(NetworkIoTest, RejectsNonFiniteEdgeLengths) {
  EXPECT_EQ(LoadTwoNodeNetwork("nan_length.csv", "100", "nan"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadTwoNodeNetwork("inf_length.csv", "100", "inf"),
            StatusCode::kInvalidArgument);
}

TEST(NetworkIoTest, RejectsNonFiniteCoordinates) {
  EXPECT_EQ(LoadTwoNodeNetwork("nan_coord.csv", "nan", "100"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadTwoNodeNetwork("inf_coord.csv", "-inf", "100"),
            StatusCode::kInvalidArgument);
}

TEST(NetworkIoTest, RejectsUnbuiltSave) {
  RoadNetwork net;
  net.AddNode({0, 0});
  const Status s = SaveNetworkCsv(net, TempPath("unbuilt.csv"));
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace auctionride
