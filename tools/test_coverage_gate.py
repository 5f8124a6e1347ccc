#!/usr/bin/env python3
"""Unit tests for tools/coverage_gate.py on small gcov-JSON fixtures.

    python3 tools/test_coverage_gate.py
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import coverage_gate  # noqa: E402

SRC_ROOT = "/repo"


def fn(name, calls, line=10):
    return {"demangled_name": name, "execution_count": calls,
            "start_line": line}


def document(file, functions):
    """One gcov --json-format document covering one source file."""
    return {"current_working_directory": SRC_ROOT + "/build",
            "files": [{"file": f"{SRC_ROOT}/src/{file}",
                       "functions": functions, "lines": []}]}


def gate(documents, allowed):
    functions = coverage_gate.function_calls(documents, SRC_ROOT)
    return functions, coverage_gate.gate(functions, allowed)


class QualifiedName(unittest.TestCase):
    def test_drops_return_type_parameters_and_templates(self):
        cases = {
            "void meshnet::net::Link::send(meshnet::net::Packet)":
                "meshnet::net::Link::send",
            "meshnet::util::detail::LogLine& meshnet::util::detail::LogLine::"
            "operator<< <char [6]>(char const (&) [6])":
                "meshnet::util::detail::LogLine::operator<<",
            "std::vector<int, std::allocator<int> > meshnet::Foo<int>::bar"
            "<long>(std::map<int, int> const&) const":
                "meshnet::Foo::bar",
            "meshnet::Foo::Foo(int)": "meshnet::Foo::Foo",
            "meshnet::(anonymous namespace)::helper(int)":
                "meshnet::(anonymous namespace)::helper",
            "meshnet::Foo::run()::{lambda(int)#1}::operator()(int) const":
                "meshnet::Foo::run::{lambda#1}::operator()",
            "long meshnet::Flags::get(char const*) const::{lambda()#1}::"
            "operator()() const": "meshnet::Flags::get::{lambda#1}::operator()",
            "bool meshnet::operator==(meshnet::A const&, meshnet::A const&)":
                "meshnet::operator==",
            "meshnet::Foo::operator bool() const": "meshnet::Foo::operator bool",
            "std::string meshnet::util::fmt[abi:cxx11](unsigned long)":
                "meshnet::util::fmt",
        }
        for demangled, expected in cases.items():
            with self.subTest(demangled=demangled):
                self.assertEqual(coverage_gate.qualified_name(demangled),
                                 expected)


class Gate(unittest.TestCase):
    def test_unlisted_zero_hit_key_fails(self):
        docs = [document("a.cc", [fn("void ns::used()", 3),
                                  fn("void ns::unused()", 0, line=42)])]
        _, failures = gate(docs, {})
        self.assertEqual(len(failures), 1)
        self.assertIn("src/a.cc:42", failures[0])
        self.assertIn("ns::unused", failures[0])
        # Listing it with a reason passes.
        _, failures = gate(docs, {"src/a.cc: ns::unused": "error path"})
        self.assertEqual(failures, [])

    def test_stale_allowlist_entry_fails(self):
        docs = [document("a.cc", [fn("void ns::used()", 3)])]
        _, failures = gate(docs, {"src/a.cc: ns::used": "was dead"})
        self.assertEqual(len(failures), 1)
        self.assertIn("now called", failures[0])
        _, failures = gate(docs, {"src/a.cc: ns::gone": "deleted"})
        self.assertEqual(len(failures), 1)
        self.assertIn("no longer exists", failures[0])

    def test_instantiations_merge_and_one_call_counts(self):
        # Two instantiations of one template, in two translation units
        # (so two documents): one is called, so the key is called.
        docs = [document("t.h", [fn("void ns::put<int>(int)", 0, line=7)]),
                document("t.h", [fn("void ns::put<long>(long)", 2, line=7)])]
        functions, failures = gate(docs, {})
        self.assertEqual(failures, [])
        self.assertEqual(functions["src/t.h: ns::put"], (2, 7))
        # All instantiations at zero make one zero-hit key.
        docs = [document("t.h", [fn("void ns::put<int>(int)", 0, line=7),
                                 fn("void ns::put<long>(long)", 0, line=7)])]
        _, failures = gate(docs, {})
        self.assertEqual(len(failures), 1)

    def test_files_outside_src_are_ignored(self):
        doc = document("a.cc", [fn("void ns::f()", 1)])
        doc["files"].append({"file": "/usr/include/c++/vector",
                             "functions": [fn("void std::g()", 0)],
                             "lines": []})
        functions, failures = gate([doc], {})
        self.assertEqual(list(functions), ["src/a.cc: ns::f"])
        self.assertEqual(failures, [])


class Allowlist(unittest.TestCase):
    def read(self, text):
        with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                         delete=False) as f:
            f.write(text)
        try:
            return coverage_gate.read_allowlist(f.name)
        finally:
            os.remove(f.name)

    def test_reads_keys_and_reasons(self):
        allowed = self.read("# comment\n\nsrc/a.cc: ns::f  # error path\n")
        self.assertEqual(allowed, {"src/a.cc: ns::f": "error path"})

    def test_entry_without_reason_is_rejected(self):
        with self.assertRaises(SystemExit):
            self.read("src/a.cc: ns::f\n")


if __name__ == "__main__":
    unittest.main()
