// End-to-end tests of the command-line tools: generate a dataset, convert
// formats, and run every subcommand. The binary paths are injected by
// CMake (SPARQLSIM_CLI / SPARQLSIM_DATAGEN point at the built tools).

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "cli_test_common.h"

namespace {

using sparqlsim_test::RunCommand;

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    int code = 0;
    RunCommand(std::string(SPARQLSIM_DATAGEN) + " movies > " + NtPath(), &code);
    ASSERT_EQ(code, 0);
  }
  static std::string NtPath() { return "/tmp/sparqlsim_cli_test_movies.nt"; }
  static std::string GdbPath() {
    return "/tmp/sparqlsim_cli_test_movies.gdb";
  }
};

TEST_F(CliTest, DatagenWritesTriples) {
  std::ifstream in(NtPath());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 20u);  // Fig. 1(a) has 20 triples
}

TEST_F(CliTest, StatsCommand) {
  int code = 0;
  std::string out =
      RunCommand(std::string(SPARQLSIM_CLI) + " stats " + NtPath(), &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("triples:    20"), std::string::npos);
  EXPECT_NE(out.find("directed"), std::string::npos);
}

TEST_F(CliTest, QueryCommand) {
  int code = 0;
  std::string out = RunCommand(
      "echo 'SELECT * WHERE { ?d <directed> ?m . }' | " +
          std::string(SPARQLSIM_CLI) + " query " + NtPath() + " -",
      &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("B. De Palma"), std::string::npos);
  EXPECT_NE(out.find("Mortdecai"), std::string::npos);
}

TEST_F(CliTest, SimCommand) {
  int code = 0;
  std::string out = RunCommand(
      "echo 'SELECT * WHERE { ?d <directed> ?m . ?d <worked_with> ?c . }' "
      "| " +
          std::string(SPARQLSIM_CLI) + " sim " + NtPath() + " -",
      &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("?d: 2 candidates"), std::string::npos);
}

TEST_F(CliTest, PruneCommandWritesOutput) {
  int code = 0;
  std::string pruned_path = "/tmp/sparqlsim_cli_test_pruned.nt";
  RunCommand("echo 'SELECT * WHERE { ?d <directed> ?m . ?d <worked_with> ?c . }' "
      "| " +
          std::string(SPARQLSIM_CLI) + " prune " + NtPath() + " - " +
          pruned_path,
      &code);
  EXPECT_EQ(code, 0);
  std::ifstream in(pruned_path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 4u);  // the two bold subgraphs of Fig. 1(a)
}

TEST_F(CliTest, ConvertAndBinaryLoad) {
  int code = 0;
  RunCommand(std::string(SPARQLSIM_CLI) + " convert " + NtPath() + " " + GdbPath(),
      &code);
  EXPECT_EQ(code, 0);
  std::string out =
      RunCommand(std::string(SPARQLSIM_CLI) + " stats " + GdbPath(), &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("triples:    20"), std::string::npos);
}

TEST_F(CliTest, ExplainCommand) {
  int code = 0;
  std::string out = RunCommand(
      "echo 'SELECT * WHERE { ?d <directed> ?m . ?m <genre> ?g . }' | " +
          std::string(SPARQLSIM_CLI) + " explain " + NtPath() + " -",
      &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("rdfox-like"), std::string::npos);
  EXPECT_NE(out.find("virtuoso-like"), std::string::npos);
}

TEST_F(CliTest, BenchCommand) {
  int code = 0;
  std::string out = RunCommand(
      "echo 'SELECT * WHERE { ?d <directed> ?m . }' | " +
          std::string(SPARQLSIM_CLI) + " bench " + NtPath() + " -",
      &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("SOI solver"), std::string::npos);
  EXPECT_NE(out.find("Ma et al."), std::string::npos);
  EXPECT_NE(out.find("HHK-style"), std::string::npos);
}

TEST_F(CliTest, BadInputsFailCleanly) {
  int code = 0;
  RunCommand(std::string(SPARQLSIM_CLI) + " stats /nonexistent.nt", &code);
  EXPECT_NE(code, 0);
  RunCommand("echo 'NOT A QUERY' | " + std::string(SPARQLSIM_CLI) + " query " +
          NtPath() + " -",
      &code);
  EXPECT_NE(code, 0);
  RunCommand(std::string(SPARQLSIM_CLI) + " frobnicate " + NtPath(), &code);
  EXPECT_NE(code, 0);
  // A resident budget that is not a number, or whose byte count would
  // wrap (2^44 + 1 MiB shifts to a 1 MiB budget), is rejected from the
  // flag and from the environment alike.
  for (const char* bad : {"abc", "12abc", "17592186044417"}) {
    RunCommand(std::string(SPARQLSIM_CLI) + " --resident-mb " + bad +
                   " stats " + NtPath(),
               &code);
    EXPECT_NE(code, 0) << "--resident-mb " << bad;
    RunCommand(std::string("SPARQLSIM_RESIDENT_MB=") + bad + " " +
                   SPARQLSIM_CLI + " stats " + NtPath(),
               &code);
    EXPECT_NE(code, 0) << "SPARQLSIM_RESIDENT_MB=" << bad;
  }
}

}  // namespace
