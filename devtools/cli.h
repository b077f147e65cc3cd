//===- devtools/cli.h - Tiny command-line flag parser -----------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal flag parser shared by the benchmark and example binaries.
/// Supports `--name value`, `--name=value`, and boolean `--name` flags.
/// Deliberately dependency-free (no getopt) so the bench binaries stay
/// self-contained.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_DEVTOOLS_CLI_H
#define LFSMR_DEVTOOLS_CLI_H

#include <cstdint>
#include <string>
#include <vector>

namespace lfsmr {

/// Parsed command line: flags plus positional arguments.
class CommandLine {
public:
  /// Parses argv. Unknown flags are retained and can be detected with
  /// unknownFlags() so binaries can reject typos.
  CommandLine(int Argc, const char *const *Argv);

  /// Returns true if --Name was present (with or without a value).
  bool has(const std::string &Name) const;

  /// Returns the value of --Name, or Default if absent.
  std::string getString(const std::string &Name,
                        const std::string &Default) const;

  /// Returns the integer value of --Name, or Default if absent.
  /// Exits 2 with an error message on a malformed number, and on one
  /// outside [Min, Max] or outside int64_t, so a caller that narrows the
  /// value (a thread count to `unsigned`) can bound it instead of
  /// letting it wrap.
  int64_t getInt(const std::string &Name, int64_t Default,
                 int64_t Min = INT64_MIN, int64_t Max = INT64_MAX) const;

  /// Returns the floating-point value of --Name, or Default if absent.
  double getDouble(const std::string &Name, double Default) const;

  /// Returns a comma-separated integer list (e.g. --threads 1,2,4),
  /// or Default if absent. Exits 2 with an error message on an element
  /// that getInt would reject.
  std::vector<int64_t> getIntList(const std::string &Name,
                                  const std::vector<int64_t> &Default,
                                  int64_t Min = INT64_MIN,
                                  int64_t Max = INT64_MAX) const;

  /// Returns a comma-separated string list (e.g. --schemes epoch,hp),
  /// or Default if absent. Empty elements are dropped.
  std::vector<std::string>
  getStringList(const std::string &Name,
                const std::vector<std::string> &Default) const;

  /// Returns every flag present on the command line whose name is not in
  /// \p Known, in order of first appearance. Binaries pass their full
  /// flag vocabulary and reject a non-empty result with a usage message,
  /// so a typo like `--treads 8` cannot silently run the default sweep.
  std::vector<std::string>
  unknownFlags(const std::vector<std::string> &Known) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string> &positional() const { return Positional; }

  /// Program name (argv[0]).
  const std::string &program() const { return Program; }

private:
  struct Flag {
    std::string Name;
    std::string Value;
    bool HasValue;
  };

  const Flag *find(const std::string &Name) const;

  std::string Program;
  std::vector<Flag> Flags;
  std::vector<std::string> Positional;
};

} // namespace lfsmr

#endif // LFSMR_DEVTOOLS_CLI_H
