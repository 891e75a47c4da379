#include "fsm/fsm.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/strings.h"

namespace encodesat {

namespace {

void check_cube_chars(const std::string& s, const char* what) {
  for (char ch : s)
    if (ch != '0' && ch != '1' && ch != '-' && ch != '~')
      throw std::runtime_error(std::string("bad ") + what +
                               " character in KISS2 cube: " + s);
}

}  // namespace

Fsm parse_kiss2(std::istream& in) {
  Fsm fsm;
  std::string reset_name;
  std::string raw;
  int declared_p = -1;
  while (std::getline(in, raw)) {
    std::string line{trim(raw)};
    if (line.empty() || line[0] == '#') continue;
    if (line[0] == '.') {
      auto tok = split_ws(line);
      const std::string& dir = tok[0];
      if (dir == ".i" && tok.size() >= 2) fsm.num_inputs = parse_count(dir, tok[1]);
      else if (dir == ".o" && tok.size() >= 2) fsm.num_outputs = parse_count(dir, tok[1]);
      else if (dir == ".p" && tok.size() >= 2) declared_p = parse_count(dir, tok[1]);
      else if (dir == ".s" && tok.size() >= 2) { /* state count: informative only */ }
      else if (dir == ".r" && tok.size() >= 2) reset_name = tok[1];
      else if (dir == ".e" || dir == ".end") break;
      else throw std::runtime_error("unsupported KISS2 directive: " + dir);
      continue;
    }
    auto tok = split_ws(line);
    if (tok.size() != 4)
      throw std::runtime_error("KISS2 transition needs 4 fields: " + line);
    FsmTransition t;
    t.input = tok[0];
    t.output = tok[3];
    check_cube_chars(t.input, "input");
    check_cube_chars(t.output, "output");
    if (static_cast<int>(t.input.size()) != fsm.num_inputs)
      throw std::runtime_error("KISS2 input width mismatch: " + line);
    if (static_cast<int>(t.output.size()) != fsm.num_outputs)
      throw std::runtime_error("KISS2 output width mismatch: " + line);
    t.from = fsm.states.intern(tok[1]);
    t.to = fsm.states.intern(tok[2]);
    fsm.transitions.push_back(std::move(t));
  }
  if (!reset_name.empty())
    fsm.reset_state = static_cast<int>(fsm.states.intern(reset_name));
  if (declared_p >= 0 &&
      declared_p != static_cast<int>(fsm.transitions.size()))
    throw std::runtime_error(".p count does not match transition count");
  return fsm;
}

Fsm parse_kiss2_string(const std::string& text) {
  std::istringstream in(text);
  return parse_kiss2(in);
}

void write_kiss2(std::ostream& out, const Fsm& fsm) {
  out << ".i " << fsm.num_inputs << '\n';
  out << ".o " << fsm.num_outputs << '\n';
  out << ".s " << fsm.num_states() << '\n';
  out << ".p " << fsm.transitions.size() << '\n';
  if (fsm.reset_state >= 0)
    out << ".r "
        << fsm.states.name(static_cast<std::uint32_t>(fsm.reset_state))
        << '\n';
  for (const auto& t : fsm.transitions)
    out << t.input << ' ' << fsm.states.name(t.from) << ' '
        << fsm.states.name(t.to) << ' ' << t.output << '\n';
  out << ".e\n";
}

std::string write_kiss2_string(const Fsm& fsm) {
  std::ostringstream out;
  write_kiss2(out, fsm);
  return out.str();
}

}  // namespace encodesat
