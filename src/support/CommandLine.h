//===- support/CommandLine.h - Tiny option parser ---------------*- C++ -*-===//
///
/// \file
/// Minimal --name=value / --flag option parsing for the examples and the
/// bench binaries. Not a general library; just enough to select
/// benchmarks, variants and CPU models from the command line.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_SUPPORT_COMMANDLINE_H
#define VMIB_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace vmib {

/// Parses "--name=value" and bare "--flag" arguments; everything else is
/// collected as a positional argument.
class OptionParser {
public:
  OptionParser(int Argc, const char *const *Argv);

  bool has(const std::string &Name) const;
  std::string get(const std::string &Name,
                  const std::string &Default = "") const;
  /// Strict decimal count: \p Out is \p Default when --Name is absent,
  /// else its value — digits only, no sign, base prefix, leading zero
  /// or trailing text, no uint64 overflow. \returns false (leaving
  /// \p Out untouched) on anything else, so a typo diagnoses instead
  /// of turning into 0, an octal number or a truncated prefix.
  bool getCount(const std::string &Name, uint64_t Default,
                uint64_t &Out) const;

  /// The first --flag whose name is not in \p Known, or "" when every
  /// flag is known — so a tool can reject a removed or misspelled flag
  /// instead of running as if it were absent.
  std::string firstUnknown(std::initializer_list<const char *> Known) const;

  const std::vector<std::string> &positional() const { return Positional; }

private:
  std::map<std::string, std::string> Options;
  std::vector<std::string> Positional;
};

} // namespace vmib

#endif // VMIB_SUPPORT_COMMANDLINE_H
