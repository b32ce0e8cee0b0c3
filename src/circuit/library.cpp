#include "circuit/library.hpp"
#include "support/text.hpp"

namespace herc::circuit {

Netlist inverter_netlist() {
  Netlist nl("inverter");
  nl.add_input("in");
  nl.add_output("out");
  nl.add_nmos("mn", "in", "out", kGnd);
  nl.add_pmos("mp", "in", "out", kVdd);
  return nl;
}

Netlist nand2_netlist() {
  Netlist nl("nand2");
  nl.add_input("a");
  nl.add_input("b");
  nl.add_output("y");
  nl.add_net("x");
  // Series NMOS pull-down, parallel PMOS pull-up.
  nl.add_nmos("mn1", "a", "y", "x");
  nl.add_nmos("mn2", "b", "x", kGnd);
  nl.add_pmos("mp1", "a", "y", kVdd);
  nl.add_pmos("mp2", "b", "y", kVdd);
  return nl;
}

Netlist nor2_netlist() {
  Netlist nl("nor2");
  nl.add_input("a");
  nl.add_input("b");
  nl.add_output("y");
  nl.add_net("x");
  // Parallel NMOS pull-down, series PMOS pull-up.
  nl.add_nmos("mn1", "a", "y", kGnd);
  nl.add_nmos("mn2", "b", "y", kGnd);
  nl.add_pmos("mp1", "a", "x", kVdd);
  nl.add_pmos("mp2", "b", "y", "x");
  return nl;
}

Netlist xor2_netlist() {
  // y = a XOR b via four NANDs: n1 = ~(a&b); y = ~(~(a&n1) & ~(b&n1)).
  Netlist nl("xor2");
  nl.add_input("a");
  nl.add_input("b");
  nl.add_output("y");
  const Netlist nand2 = nand2_netlist();
  nl.instantiate(nand2, "u1", {{"a", "a"}, {"b", "b"}, {"y", "n1"}});
  nl.instantiate(nand2, "u2", {{"a", "a"}, {"b", "n1"}, {"y", "n2"}});
  nl.instantiate(nand2, "u3", {{"a", "n1"}, {"b", "b"}, {"y", "n3"}});
  nl.instantiate(nand2, "u4", {{"a", "n2"}, {"b", "n3"}, {"y", "y"}});
  return nl;
}

Netlist full_adder_netlist() {
  // sum = a ^ b ^ cin; cout = majority(a, b, cin) via NANDs.
  Netlist nl("full_adder");
  nl.add_input("a");
  nl.add_input("b");
  nl.add_input("cin");
  nl.add_output("sum");
  nl.add_output("cout");
  const Netlist x = xor2_netlist();
  const Netlist nand2 = nand2_netlist();
  nl.instantiate(x, "x1", {{"a", "a"}, {"b", "b"}, {"y", "p"}});
  nl.instantiate(x, "x2", {{"a", "p"}, {"b", "cin"}, {"y", "sum"}});
  // cout = ~( ~(a&b) & ~(p&cin) )
  nl.instantiate(nand2, "c1", {{"a", "a"}, {"b", "b"}, {"y", "g1"}});
  nl.instantiate(nand2, "c2", {{"a", "p"}, {"b", "cin"}, {"y", "g2"}});
  nl.instantiate(nand2, "c3", {{"a", "g1"}, {"b", "g2"}, {"y", "cout"}});
  return nl;
}

Netlist inverter_chain(std::size_t stages) {
  Netlist nl("inv_chain" + std::to_string(stages));
  nl.add_input("in");
  nl.add_output("out");
  const Netlist inv = inverter_netlist();
  std::string prev = "in";
  for (std::size_t i = 0; i < stages; ++i) {
    const std::string next =
        (i + 1 == stages) ? "out" : support::numbered("n", i);
    nl.instantiate(inv, support::numbered("s", i),
                   {{"in", prev}, {"out", next}});
    prev = next;
  }
  return nl;
}

Netlist latch_netlist() {
  Netlist nl("latch");
  nl.add_input("d");
  nl.add_input("en");
  nl.add_output("q");
  nl.add_net("m");
  // Pass transistor into the storage node, then a forward inverter and a
  // weak feedback inverter keeping the node.
  nl.add_nmos("mpass", "en", "m", "d");
  nl.add_nmos("mn_f", "m", "q", kGnd);
  nl.add_pmos("mp_f", "m", "q", kVdd);
  nl.add_nmos("mn_b", "q", "m", kGnd, "nch", 0.25);
  nl.add_pmos("mp_b", "q", "m", kVdd, "pch", 0.25);
  return nl;
}

Netlist mux2_netlist() {
  Netlist nl("mux2");
  nl.add_input("a");
  nl.add_input("b");
  nl.add_input("sel");
  nl.add_output("y");
  nl.add_net("seln");
  nl.add_net("m");
  // sel inverter.
  nl.add_nmos("mn_i", "sel", "seln", kGnd);
  nl.add_pmos("mp_i", "sel", "seln", kVdd);
  // Pass gates onto the shared node, then an output buffer (two
  // inverters) to restore drive.
  nl.add_nmos("mpass_a", "seln", "m", "a");
  nl.add_nmos("mpass_b", "sel", "m", "b");
  nl.add_net("yb");
  nl.add_nmos("mn_b1", "m", "yb", kGnd);
  nl.add_pmos("mp_b1", "m", "yb", kVdd);
  nl.add_nmos("mn_b2", "yb", "y", kGnd);
  nl.add_pmos("mp_b2", "yb", "y", kVdd);
  return nl;
}

Netlist sr_latch_netlist() {
  // Cross-coupled NANDs, active-low set/reset.
  Netlist nl("sr_latch");
  nl.add_input("sn");
  nl.add_input("rn");
  nl.add_output("q");
  nl.add_output("qn");
  const Netlist nand2 = nand2_netlist();
  nl.instantiate(nand2, "u1", {{"a", "sn"}, {"b", "qn"}, {"y", "q"}});
  nl.instantiate(nand2, "u2", {{"a", "rn"}, {"b", "q"}, {"y", "qn"}});
  return nl;
}

Netlist dff_netlist() {
  Netlist nl("dff");
  nl.add_input("d");
  nl.add_input("clk");
  nl.add_output("q");
  nl.add_net("clkn");
  nl.add_net("mq");
  // Clock inverter.
  nl.add_nmos("mn_c", "clk", "clkn", kGnd);
  nl.add_pmos("mp_c", "clk", "clkn", kVdd);
  // Master latch (inverting): samples d while clk=0.
  const Netlist latch = latch_netlist();
  nl.instantiate(latch, "master", {{"d", "d"}, {"en", "clkn"}, {"q", "mq"}});
  // Slave latch (inverting): passes the master's value while clk=1;
  // two inversions give q = d sampled at the rising edge.
  nl.instantiate(latch, "slave", {{"d", "mq"}, {"en", "clk"}, {"q", "q"}});
  return nl;
}

Netlist dynamic_latch_netlist() {
  Netlist nl("dynamic_latch");
  nl.add_input("d");
  nl.add_input("en");
  nl.add_output("q");
  nl.add_net("m");
  nl.add_nmos("mpass", "en", "m", "d");
  nl.add_nmos("mn_f", "m", "q", kGnd);
  nl.add_pmos("mp_f", "m", "q", kVdd);
  return nl;
}

Netlist ripple_adder_netlist(std::size_t bits) {
  Netlist nl("ripple" + std::to_string(bits));
  const Netlist fa = full_adder_netlist();
  nl.add_input("cin");
  std::string carry = "cin";
  for (std::size_t i = 0; i < bits; ++i) {
    const std::string ai = support::numbered("a", i);
    const std::string bi = support::numbered("b", i);
    const std::string si = support::numbered("s", i);
    const std::string co =
        (i + 1 == bits) ? "cout" : support::numbered("c", i + 1);
    nl.add_input(ai);
    nl.add_input(bi);
    nl.add_output(si);
    nl.instantiate(fa, "fa" + std::to_string(i),
                   {{"a", ai},
                    {"b", bi},
                    {"cin", carry},
                    {"sum", si},
                    {"cout", co}});
    carry = co;
  }
  nl.add_output("cout");
  return nl;
}

}  // namespace herc::circuit
