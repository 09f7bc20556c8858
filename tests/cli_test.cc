// End-to-end tests of the command-line tools: generate a dataset, convert
// formats, and run every subcommand. The binary paths are injected by
// CMake (SPARQLSIM_CLI / SPARQLSIM_DATAGEN point at the built tools).

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <utility>

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

/// The relation size `bench` printed on the line starting with `solver`.
std::string BenchRelation(const std::string& out, const std::string& solver) {
  const size_t line = out.find(solver);
  if (line == std::string::npos) return "missing";
  const size_t at = out.find("relation ", line);
  if (at == std::string::npos) return "missing";
  return out.substr(at + 9, out.find(')', at) - at - 9);
}

// The SOI solver and both baselines report the same relation — also when
// a constant is absent from the data (the baselines used to pin it to
// node 0 and find matches there).
TEST_F(CliTest, BenchCommand) {
  for (const auto& [query, relation] :
       {std::pair<std::string, std::string>{
            "SELECT * WHERE { ?d <directed> ?m . }", "8"},
        {"SELECT * WHERE { <NoSuchDirector> <directed> ?m . }", "0"}}) {
    int code = 0;
    std::string out = RunCommand("echo '" + query + "' | " +
                                     std::string(SPARQLSIM_CLI) + " bench " +
                                     NtPath() + " -",
                                 &code);
    EXPECT_EQ(code, 0) << query;
    for (const char* solver : {"SOI solver", "Ma et al.", "HHK-style"}) {
      EXPECT_EQ(BenchRelation(out, solver), relation) << query << "\n"
                                                      << out;
    }
  }
}

// A budget past the steady clock's range never expires: it used to
// overflow the deadline and truncate the query before its first round.
TEST_F(CliTest, HugeDeadlineNeverTruncates) {
  for (const std::string ms : {"10000000000000", "9223372036854775807"}) {
    int code = 0;
    std::string out = RunCommand(
        "echo 'SELECT * WHERE { ?d <directed> ?m . ?d <worked_with> ?c . }' "
        "| " +
            std::string(SPARQLSIM_CLI) + " --deadline-ms " + ms + " prune " +
            NtPath() + " -",
        &code);
    EXPECT_EQ(code, 0) << ms;
    EXPECT_NE(out.find("kept 4 of 20 triples"), std::string::npos) << out;
    EXPECT_EQ(out.find("truncated"), std::string::npos) << out;
  }
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
  // Numeric flags take plain decimal counts only: a sign or a leading
  // blank is a usage error with nothing on stdout, in both spellings —
  // `-0` too, although 0 itself is valid for every one of these flags.
  for (const std::string flag :
       {"--threads", "--cache-capacity", "--deadline-ms", "--resident-mb"}) {
    for (const std::string bad : {"+2", " 2", "-0"}) {
      for (const std::string& arg :
           {flag + " '" + bad + "'", flag + "='" + bad + "'"}) {
        std::string out = RunCommand(
            std::string(SPARQLSIM_CLI) + " " + arg + " stats " + NtPath(),
            &code);
        EXPECT_EQ(code, 2) << arg;
        EXPECT_EQ(out, "") << arg;
      }
    }
  }
  // So is a count past the flag's bound, before any thread starts:
  // --threads above 1024 (tools::kMaxThreads; SIZE_MAX used to abort in
  // the thread pool's reserve) and --deadline-ms above the signed
  // millisecond range (it used to wrap to a negative budget).
  for (const std::string arg :
       {"--threads 1025", "--threads=18446744073709551615",
        "--deadline-ms 9223372036854775808",
        "--deadline-ms=18446744073709551615"}) {
    std::string out = RunCommand(
        "echo 'SELECT * WHERE { ?d <directed> ?m . }' | " +
            std::string(SPARQLSIM_CLI) + " " + arg + " sim " + NtPath() +
            " -",
        &code);
    EXPECT_EQ(code, 2) << arg;
    EXPECT_EQ(out, "") << arg;
  }
}

}  // namespace
