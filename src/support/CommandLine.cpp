//===- support/CommandLine.cpp --------------------------------------------===//

#include "support/CommandLine.h"

#include <algorithm>

using namespace vmib;

OptionParser::OptionParser(int Argc, const char *const *Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--", 0) != 0) {
      Positional.push_back(Arg);
      continue;
    }
    std::string Body = Arg.substr(2);
    size_t Eq = Body.find('=');
    if (Eq == std::string::npos)
      Options[Body] = "1";
    else
      Options[Body.substr(0, Eq)] = Body.substr(Eq + 1);
  }
}

bool OptionParser::has(const std::string &Name) const {
  return Options.count(Name) != 0;
}

std::string OptionParser::get(const std::string &Name,
                              const std::string &Default) const {
  auto It = Options.find(Name);
  return It == Options.end() ? Default : It->second;
}

bool OptionParser::getCount(const std::string &Name, uint64_t Default,
                            uint64_t &Out) const {
  auto It = Options.find(Name);
  if (It == Options.end()) {
    Out = Default;
    return true;
  }
  const std::string &V = It->second;
  if (V.empty() || (V.size() > 1 && V[0] == '0'))
    return false;
  uint64_t N = 0;
  for (char C : V) {
    if (C < '0' || C > '9')
      return false;
    unsigned D = static_cast<unsigned>(C - '0');
    if (N > (UINT64_MAX - D) / 10)
      return false;
    N = N * 10 + D;
  }
  Out = N;
  return true;
}

std::string
OptionParser::firstUnknown(std::initializer_list<const char *> Known) const {
  for (const auto &Opt : Options)
    if (std::none_of(Known.begin(), Known.end(),
                     [&](const char *K) { return Opt.first == K; }))
      return Opt.first;
  return "";
}
