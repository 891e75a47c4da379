#include "logic/pla.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/strings.h"

namespace encodesat {

namespace {

// Splits a PLA cube line into input field and output field, tolerating
// arbitrary whitespace (espresso allows "01-1 10" and "01-1|10" variants are
// not supported).
void parse_cube_line(const std::string& line, int ni, int no,
                     std::string& inputs, std::string& outputs) {
  std::string compact;
  for (char ch : line)
    if (ch != ' ' && ch != '\t') compact += ch;
  if (static_cast<int>(compact.size()) != ni + no)
    throw std::runtime_error("PLA cube line has wrong width: " + line);
  inputs = compact.substr(0, static_cast<std::size_t>(ni));
  outputs = compact.substr(static_cast<std::size_t>(ni));
}

}  // namespace

Pla read_pla(std::istream& in) {
  int ni = -1, no = -1;
  std::string type = "fd";
  std::vector<std::string> ilb, ob;
  std::vector<std::string> cube_lines;

  std::string raw;
  while (std::getline(in, raw)) {
    std::string line{trim(raw)};
    if (line.empty() || line[0] == '#') continue;
    if (line[0] == '.') {
      auto tok = split_ws(line);
      const std::string& dir = tok[0];
      if (dir == ".i" && tok.size() >= 2) ni = parse_count(dir, tok[1]);
      else if (dir == ".o" && tok.size() >= 2) no = parse_count(dir, tok[1]);
      else if (dir == ".type" && tok.size() >= 2) type = tok[1];
      else if (dir == ".ilb") ilb.assign(tok.begin() + 1, tok.end());
      else if (dir == ".ob") ob.assign(tok.begin() + 1, tok.end());
      else if (dir == ".e" || dir == ".end") break;
      else if (dir == ".p") { /* cube count: informative only */ }
      else throw std::runtime_error("unsupported PLA directive: " + dir);
      continue;
    }
    cube_lines.push_back(line);
  }
  if (ni <= 0 || no <= 0)
    throw std::runtime_error("PLA missing .i/.o declarations");

  Pla pla;
  pla.domain = Domain::binary(ni, no);
  pla.on = Cover(pla.domain);
  pla.dc = Cover(pla.domain);
  pla.off = Cover(pla.domain);
  pla.type = type;
  pla.input_labels = std::move(ilb);
  pla.output_labels = std::move(ob);

  for (const std::string& line : cube_lines) {
    std::string inputs, outputs;
    parse_cube_line(line, ni, no, inputs, outputs);
    std::string on_out(static_cast<std::size_t>(no), '0');
    std::string dc_out(static_cast<std::size_t>(no), '0');
    std::string off_out(static_cast<std::size_t>(no), '0');
    bool has_on = false, has_dc = false, has_off = false;
    for (int o = 0; o < no; ++o) {
      const char ch = outputs[static_cast<std::size_t>(o)];
      switch (ch) {
        case '1':
        case '4':
          on_out[static_cast<std::size_t>(o)] = '1';
          has_on = true;
          break;
        case '-':
        case '~':
        case '2':
          if (type == "fd" || type == "fdr") {
            dc_out[static_cast<std::size_t>(o)] = '1';
            has_dc = true;
          }
          break;
        case '0':
          if (type == "fr" || type == "fdr") {
            off_out[static_cast<std::size_t>(o)] = '1';
            has_off = true;
          }
          break;
        default:
          throw std::runtime_error("bad PLA output character");
      }
    }
    if (has_on) pla.on.add(cube_from_string(pla.domain, inputs, on_out));
    if (has_dc) pla.dc.add(cube_from_string(pla.domain, inputs, dc_out));
    if (has_off) pla.off.add(cube_from_string(pla.domain, inputs, off_out));
  }
  return pla;
}

Pla read_pla_string(const std::string& text) {
  std::istringstream in(text);
  return read_pla(in);
}

namespace {

// Writes one cube line; asserted output positions print as `on_char` ('1'
// for ON-set rows, '-' for DC rows of a type-fd file).
void write_cube(std::ostream& out, const Domain& dom, const Cube& c,
                char on_char) {
  for (int v = 0; v < dom.num_inputs(); ++v) {
    const bool b0 = c.bits.test(static_cast<std::size_t>(dom.pos(v, 0)));
    const bool b1 = c.bits.test(static_cast<std::size_t>(dom.pos(v, 1)));
    out << ((b0 && b1) ? '-' : (b1 ? '1' : '0'));
  }
  out << ' ';
  for (int o = 0; o < dom.num_outputs(); ++o)
    out << (c.bits.test(static_cast<std::size_t>(dom.out_pos(o))) ? on_char
                                                                  : '0');
  out << '\n';
}

}  // namespace

void write_pla(std::ostream& out, const Pla& pla) {
  const Domain& dom = pla.domain;
  out << ".i " << dom.num_inputs() << '\n';
  out << ".o " << dom.num_outputs() << '\n';
  if (!pla.input_labels.empty()) {
    out << ".ilb";
    for (const auto& s : pla.input_labels) out << ' ' << s;
    out << '\n';
  }
  if (!pla.output_labels.empty()) {
    out << ".ob";
    for (const auto& s : pla.output_labels) out << ' ' << s;
    out << '\n';
  }
  out << ".type " << pla.type << '\n';
  out << ".p " << (pla.on.size() + pla.dc.size()) << '\n';
  for (const Cube& c : pla.on) write_cube(out, dom, c, '1');
  if (pla.type == "fd" || pla.type == "fdr")
    for (const Cube& c : pla.dc) write_cube(out, dom, c, '-');
  out << ".e\n";
}

std::string write_pla_string(const Pla& pla) {
  std::ostringstream out;
  write_pla(out, pla);
  return out.str();
}

}  // namespace encodesat
