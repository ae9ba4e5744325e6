// Unit tests for the CLI option parser, and (when the build provides the
// qbarren_cli binary as QBARREN_CLI_BIN) end-to-end checks of its flags.
#include "qbarren/common/cli.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "qbarren/common/error.hpp"
#include "qbarren/common/exit_codes.hpp"

namespace qbarren {
namespace {

CliArgs parse(std::vector<const char*> argv,
              std::vector<std::string> allowed = {}) {
  argv.insert(argv.begin(), "prog");
  return CliArgs(static_cast<int>(argv.size()), argv.data(),
                 std::move(allowed));
}

TEST(CliArgs, SpaceSeparatedValue) {
  const CliArgs args = parse({"--qubits", "10"});
  EXPECT_TRUE(args.has("qubits"));
  EXPECT_EQ(args.get_int("qubits", 0), 10);
}

TEST(CliArgs, EqualsSeparatedValue) {
  const CliArgs args = parse({"--seed=99"});
  EXPECT_EQ(args.get_uint("seed", 0), 99u);
}

TEST(CliArgs, BareFlagIsTrue) {
  const CliArgs args = parse({"--verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(CliArgs, FlagFollowedByOptionIsBoolean) {
  const CliArgs args = parse({"--verbose", "--qubits", "4"});
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_int("qubits", 0), 4);
}

TEST(CliArgs, MissingOptionUsesFallback) {
  const CliArgs args = parse({});
  EXPECT_FALSE(args.has("qubits"));
  EXPECT_EQ(args.get_int("qubits", 7), 7);
  EXPECT_EQ(args.get_string("name", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(args.get_double("lr", 0.5), 0.5);
  EXPECT_FALSE(args.get_bool("flag", false));
}

TEST(CliArgs, DoubleParsing) {
  const CliArgs args = parse({"--lr", "0.125"});
  EXPECT_DOUBLE_EQ(args.get_double("lr", 0.0), 0.125);
}

TEST(CliArgs, BoolVariants) {
  EXPECT_TRUE(parse({"--f=yes"}).get_bool("f", false));
  EXPECT_TRUE(parse({"--f=on"}).get_bool("f", false));
  EXPECT_TRUE(parse({"--f=1"}).get_bool("f", false));
  EXPECT_FALSE(parse({"--f=no"}).get_bool("f", true));
  EXPECT_FALSE(parse({"--f=off"}).get_bool("f", true));
  EXPECT_FALSE(parse({"--f=0"}).get_bool("f", true));
  EXPECT_THROW((void)parse({"--f=maybe"}).get_bool("f", false),
               InvalidArgument);
}

TEST(CliArgs, IntListParsing) {
  const CliArgs args = parse({"--qubits", "2,4,6,8,10"});
  const std::vector<int> expected{2, 4, 6, 8, 10};
  EXPECT_EQ(args.get_int_list("qubits", {}), expected);
}

TEST(CliArgs, IntListFallback) {
  const CliArgs args = parse({});
  const std::vector<int> fb{1, 2};
  EXPECT_EQ(args.get_int_list("qubits", fb), fb);
}

TEST(CliArgs, IntListRejectsGarbage) {
  const CliArgs args = parse({"--qubits", "2,x,4"});
  EXPECT_THROW((void)args.get_int_list("qubits", {}), InvalidArgument);
}

TEST(CliArgs, NumberParsingRejectsGarbage) {
  const CliArgs args = parse({"--n", "abc"});
  EXPECT_THROW((void)args.get_int("n", 0), InvalidArgument);
  EXPECT_THROW((void)args.get_uint("n", 0), InvalidArgument);
  EXPECT_THROW((void)args.get_double("n", 0.0), InvalidArgument);
}

TEST(CliArgs, UnknownOptionRejectedWhenAllowlisted) {
  EXPECT_THROW(parse({"--typo", "1"}, {"qubits"}), InvalidArgument);
  EXPECT_NO_THROW(parse({"--qubits", "1"}, {"qubits"}));
}

TEST(CliArgs, EmptyAllowlistAcceptsAnything) {
  EXPECT_NO_THROW(parse({"--whatever", "1"}));
}

TEST(CliArgs, PositionalArgumentsPreserved) {
  const CliArgs args = parse({"file1", "--q", "2", "file2"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "file1");
  EXPECT_EQ(args.positional()[1], "file2");
}

TEST(CliArgs, NegativeNumbersAsValues) {
  // A leading dash on a value is fine as long as it is not "--".
  const CliArgs args = parse({"--offset", "-3"});
  EXPECT_EQ(args.get_int("offset", 0), -3);
}

TEST(ExitCodes, TaxonomyIsStable) {
  // These values are API: scripts around `qbarren run/serve/submit` branch
  // on them (retry-on-4, fix-spec-on-3, resume-on-130), so any change here
  // is a breaking one and must be deliberate.
  EXPECT_EQ(kExitOk, 0);
  EXPECT_EQ(kExitFailure, 1);
  EXPECT_EQ(kExitAdmissionRejected, 3);
  EXPECT_EQ(kExitWorkerCrashBudget, 4);
  EXPECT_EQ(kExitInterrupted, 130);  // 128 + SIGINT, the shell convention
}

TEST(ExitCodes, Distinct) {
  EXPECT_NE(kExitOk, kExitFailure);
  EXPECT_NE(kExitFailure, kExitAdmissionRejected);
  EXPECT_NE(kExitAdmissionRejected, kExitWorkerCrashBudget);
  EXPECT_NE(kExitWorkerCrashBudget, kExitInterrupted);
}

#ifdef QBARREN_CLI_BIN

struct CliRun {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs qbarren_cli with `args` (shell words), capturing stdout and stderr.
CliRun run_cli(const std::string& args) {
  const std::string base = ::testing::TempDir() + "qbarren_cli_" +
                           ::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name();
  const std::string command = std::string("'") + QBARREN_CLI_BIN + "' " +
                              args + " >'" + base + ".out' 2>'" + base +
                              ".err'";
  const int status = std::system(command.c_str());
  CliRun run;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  run.out = slurp(base + ".out");
  run.err = slurp(base + ".err");
  return run;
}

TEST(CliHelp, PrintsUsageAndExitsZeroBeforeAnyWork) {
  const std::string usage = run_cli("").out;
  ASSERT_NE(usage.find("subcommands:"), std::string::npos) << usage;
  for (const char* command :
       {"--help", "variance --help", "variance --qubits 2,4 --help",
        "train --help", "sweep --help", "landscape --help", "predict --help",
        "lint --help", "audit --help", "fsck --help", "submit --help"}) {
    const CliRun run = run_cli(command);
    EXPECT_EQ(run.exit_code, kExitOk) << command << ": " << run.err;
    EXPECT_EQ(run.out, usage) << command;
    EXPECT_TRUE(run.err.empty()) << command << ": " << run.err;
  }
}

TEST(CliUnknownFlag, EverySubcommandRejectsItBeforeAnyWork) {
  for (const char* command :
       {"variance", "train", "sweep", "landscape", "express", "lightcone",
        "predict", "lint", "audit", "fsck", "serve", "submit", "worker"}) {
    for (const char* flag : {"--no-such-flag", "--no-such-flag=3"}) {
      const CliRun run =
          run_cli(std::string(command) + " " + flag + " </dev/null");
      EXPECT_EQ(run.exit_code, kExitFailure) << command << " " << flag;
      EXPECT_EQ(run.err, "error: unknown option --no-such-flag\n")
          << command << " " << flag;
      EXPECT_TRUE(run.out.empty()) << command << ": " << run.out;
    }
  }
}

TEST(CliUnknownFlag, OptionsOfOtherSubcommandsAreRejected) {
  // --batch is taken by no subcommand.
  const std::pair<const char*, const char*> cases[] = {
      {"variance --batch 4", "--batch"},
      {"train --engine adjoint --batch auto", "--batch"},
      {"sweep --batch 1", "--batch"},
      {"landscape --batch auto", "--batch"},
      {"lint --circuits 5", "--circuits"},
      {"variance --structures 8", "--structures"},
      {"train --circuits 5", "--circuits"},
      {"landscape --engine adjoint", "--engine"},
      {"submit --workers 2", "--workers"}};
  for (const auto& [command, flag] : cases) {
    const CliRun run = run_cli(command);
    EXPECT_EQ(run.exit_code, kExitFailure) << command;
    EXPECT_EQ(run.err, std::string("error: unknown option ") + flag + "\n")
        << command;
    EXPECT_TRUE(run.out.empty()) << command << ": " << run.out;
  }
}

TEST(CliUnknownFlag, EveryOptionASubcommandReadsStillParses) {
  // --help after the options prints the usage once they have all parsed,
  // so each line proves its subcommand's allow-list holds every option
  // the subcommand reads.
  const std::string usage = run_cli("--help").out;
  const std::string resilient =
      " --checkpoint c --resume --jobs 1 --cell-timeout-sec 9"
      " --max-cell-failures 0 --cell-retries 0";
  const std::string variance =
      " --qubits 2 --circuits 3 --layers 2 --seed 1 --cost zz"
      " --engine adjoint --param last";
  const std::string training =
      " --optimizer adam --qubits 2 --layers 1 --iterations 1 --lr 0.1"
      " --seed 1 --engine adjoint --deadline-sec 9 --nonfinite throw";
  for (const std::string& command : {
           "variance" + variance + resilient +
               " --lint=off --verify-plans --json v.json",
           "train" + training + resilient +
               " --lint off --verify-plans --json t.json",
           "sweep" + training + resilient +
               " --lint=warn --verify-plans --repetitions 2",
           std::string("landscape --qubits 2 --layers 2 --grid 3 --seed 1"
                       " --verify-plans --json l.json"),
           std::string("express --qubits 2 --layers 1 --pairs 3 --seed 1"),
           std::string("lightcone --qubits 2 --layers 1 --seed 1"),
           "predict" + variance + resilient +
               " --init random,he --structures 2 --conformance --json p.json",
           std::string("lint --rules --qasm q --ansatz training --qubits 2"
                       " --layers 1 --seed 1 --cost global --param last"
                       " --verify-plan --format json"),
           "audit" + variance + training +
               " --rules --request r --kind sweep --rep-seeds 1,2"
               " --repetitions 2 --format json",
           "fsck store" + variance + training +
               " --request r --cache --fingerprint f --kind variance"
               " --repetitions 2 --format table",
           std::string("serve --once r --socket s --max-pending 1 --workers 1"
                       " --cache c --worker-kill-sec 9 --crash-attempts 1"
                       " --max-worker-crashes 1"),
           std::string("submit --socket s --request r")}) {
    const CliRun run = run_cli(command + " --help");
    EXPECT_EQ(run.exit_code, kExitOk) << command << ": " << run.err;
    EXPECT_EQ(run.out, usage) << command;
  }
}

TEST(CliVariance, RepeatedQubitCountExitsOneBeforeAnyCell) {
  const std::string store = ::testing::TempDir() + "qbarren_cli_repeat.ckpt";
  std::remove(store.c_str());
  const CliRun run = run_cli(
      "variance --qubits 2,4,2 --circuits 4 --layers 2 --checkpoint '" +
      store + "'");
  EXPECT_EQ(run.exit_code, kExitFailure) << run.err;
  EXPECT_NE(run.err.find("qubit count 2 repeats"), std::string::npos)
      << run.err;
  EXPECT_TRUE(run.out.empty()) << run.out;
  EXPECT_EQ(run.err.find("[1/"), std::string::npos) << run.err;
  EXPECT_FALSE(std::ifstream(store).good()) << "a store was written";

  // The auditor still enumerates the duplicate and reports it.
  const CliRun audit =
      run_cli("audit --kind variance --qubits 4,4 --circuits 1 --format json");
  EXPECT_EQ(audit.exit_code, kExitFailure) << audit.err;
  EXPECT_NE(audit.out.find("\"QD103\""), std::string::npos) << audit.out;
}

#endif  // QBARREN_CLI_BIN

}  // namespace
}  // namespace qbarren
