//===- devtools/cli.cpp - Tiny command-line flag parser -------------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//

#include "devtools/cli.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace lfsmr;

CommandLine::CommandLine(int Argc, const char *const *Argv) {
  if (Argc > 0)
    Program = Argv[0];
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.size() < 3 || Arg[0] != '-' || Arg[1] != '-') {
      Positional.push_back(Arg);
      continue;
    }
    Arg = Arg.substr(2);
    const std::size_t Eq = Arg.find('=');
    if (Eq != std::string::npos) {
      Flags.push_back({Arg.substr(0, Eq), Arg.substr(Eq + 1), true});
      continue;
    }
    // `--name value` form: consume the next token as the value unless it
    // looks like another flag.
    if (I + 1 < Argc && Argv[I + 1][0] != '-') {
      Flags.push_back({Arg, Argv[I + 1], true});
      ++I;
      continue;
    }
    Flags.push_back({Arg, "", false});
  }
}

const CommandLine::Flag *CommandLine::find(const std::string &Name) const {
  for (const Flag &F : Flags)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

bool CommandLine::has(const std::string &Name) const {
  return find(Name) != nullptr;
}

std::string CommandLine::getString(const std::string &Name,
                                   const std::string &Default) const {
  const Flag *F = find(Name);
  return F && F->HasValue ? F->Value : Default;
}

/// Parses \p Text as a decimal integer in [Min, Max], or exits 2 naming
/// flag --\p Name. strtoll saturates out-of-range input and reports it
/// only through errno, so ERANGE is checked before the bounds.
static int64_t parseInt(const std::string &Name, const std::string &Text,
                        int64_t Min, int64_t Max) {
  char *End = nullptr;
  errno = 0;
  const long long V = std::strtoll(Text.c_str(), &End, 10);
  if (End == Text.c_str() || *End != '\0') {
    std::fprintf(stderr, "error: flag --%s expects an integer, got '%s'\n",
                 Name.c_str(), Text.c_str());
    std::exit(2);
  }
  if (errno == ERANGE || V < Min || V > Max) {
    std::fprintf(stderr,
                 "error: flag --%s expects an integer in [%lld, %lld], "
                 "got '%s'\n",
                 Name.c_str(), static_cast<long long>(Min),
                 static_cast<long long>(Max), Text.c_str());
    std::exit(2);
  }
  return V;
}

int64_t CommandLine::getInt(const std::string &Name, int64_t Default,
                            int64_t Min, int64_t Max) const {
  const Flag *F = find(Name);
  if (!F || !F->HasValue)
    return Default;
  return parseInt(Name, F->Value, Min, Max);
}

double CommandLine::getDouble(const std::string &Name, double Default) const {
  const Flag *F = find(Name);
  if (!F || !F->HasValue)
    return Default;
  char *End = nullptr;
  const double V = std::strtod(F->Value.c_str(), &End);
  if (End == F->Value.c_str() || *End != '\0') {
    std::fprintf(stderr, "error: flag --%s expects a number, got '%s'\n",
                 Name.c_str(), F->Value.c_str());
    std::exit(2);
  }
  return V;
}

/// Splits \p Value on commas, dropping empty elements.
static std::vector<std::string> splitList(const std::string &Value) {
  std::vector<std::string> Out;
  std::string Item;
  for (std::size_t I = 0; I <= Value.size(); ++I) {
    if (I == Value.size() || Value[I] == ',') {
      if (!Item.empty()) {
        Out.push_back(Item);
        Item.clear();
      }
      continue;
    }
    Item.push_back(Value[I]);
  }
  return Out;
}

std::vector<int64_t>
CommandLine::getIntList(const std::string &Name,
                        const std::vector<int64_t> &Default, int64_t Min,
                        int64_t Max) const {
  const Flag *F = find(Name);
  if (!F || !F->HasValue)
    return Default;
  std::vector<int64_t> Out;
  for (const std::string &Item : splitList(F->Value))
    Out.push_back(parseInt(Name, Item, Min, Max));
  return Out;
}

std::vector<std::string>
CommandLine::getStringList(const std::string &Name,
                           const std::vector<std::string> &Default) const {
  const Flag *F = find(Name);
  if (!F || !F->HasValue)
    return Default;
  return splitList(F->Value);
}

std::vector<std::string>
CommandLine::unknownFlags(const std::vector<std::string> &Known) const {
  std::vector<std::string> Out;
  for (const Flag &F : Flags) {
    bool IsKnown = false;
    for (const std::string &K : Known)
      if (F.Name == K) {
        IsKnown = true;
        break;
      }
    bool Reported = false;
    for (const std::string &U : Out)
      if (F.Name == U) {
        Reported = true;
        break;
      }
    if (!IsKnown && !Reported)
      Out.push_back(F.Name);
  }
  return Out;
}
