#!/usr/bin/env python3
"""Unit tests for tools/option_gate.py, plus one run over a copy of the
repository with a never-set field injected.

    python3 tools/test_option_gate.py
"""

import contextlib
import io
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import option_gate  # noqa: E402

HEADER = """
#pragma once
// struct CommentedOutOptions { int ghost = 0; };
struct BaseSection {
  int inherited = 1;
};
struct WidgetConfig : BaseSection {
  /// A documented field.
  int size = 3;
  std::map<std::string, std::vector<int>> table;
  std::function<void(int, double)> hook;
  double ratio{0.5};
  static constexpr int kLimit = 4;
  using Alias = int;
  int method() const { return size; }
  static WidgetConfig make(int n) {
    WidgetConfig c;
    c.size = n;
    return c;
  }
  struct Inner {
    int depth = 0;
  };
};
struct Unrelated {
  int skipped = 0;
};
class Widget {
 public:
  struct Options {
    bool fast = false;
  };
 private:
  int state_ = 0;
};
"""


def fields_of(text, path="src/w.h"):
    with tempfile.TemporaryDirectory() as root:
        os.makedirs(os.path.join(root, "src"))
        with open(os.path.join(root, path), "w") as f:
            f.write(text)
        return option_gate.collect_fields(root)


class Fields(unittest.TestCase):
    def test_data_members_of_config_structs_and_their_bases(self):
        self.assertEqual(sorted(fields_of(HEADER)), [
            "BaseSection::inherited",
            "Widget::Options::fast",
            "WidgetConfig::hook",
            "WidgetConfig::ratio",
            "WidgetConfig::size",
            "WidgetConfig::table",
        ])

    def test_fields_map_to_their_header(self):
        self.assertEqual(set(fields_of(HEADER).values()), {"src/w.h"})


class Setters(unittest.TestCase):
    def setters(self, code, field="WidgetConfig::size"):
        sources = {"src/w.h": option_gate.written_names("c.size = 1;"),
                   "bench/b.cc": option_gate.written_names(
                       option_gate.strip_comments(code))}
        return option_gate.setters(field, "src/w.h", sources)

    def test_named_writes_count(self):
        for code in ("c.size = 2;", "p->size = 2;", "W{.size = 2}",
                     "c.size.x = 2;", "c.size[k] = 2;", "c.size[k].y = 2;",
                     "c.size += 2;", "c.size.push_back(2);",
                     "c.size.emplace(k, 2);", "c.o.size = 2;"):
            self.assertEqual(self.setters(code), ["bench/b.cc"], code)

    def test_reads_comparisons_and_comments_do_not(self):
        for code in ("x = c.size;", "if (c.size == 2) {}", "c.sizes = 2;",
                     "// c.size = 2;", 'f("c.size = 2");', "c.size.size();",
                     "resize = 2;", "if (c.size <= 2) {}", "c.size != 2;"):
            self.assertEqual(self.setters(code), [], code)

    def test_own_header_does_not_count(self):
        self.assertEqual(self.setters(""), [])

    def test_writes_through_a_reference_count(self):
        for code in ("int& r = c.size; r = 2;",
                     "auto& r = p->size; r.push_back(2);",
                     "Table& r = c.o.size;\nif (x) { r[k] = 2; }",
                     "Duration& r = cp.policies().size; r += 2;",
                     "auto&& r = c.size; r.y = 2;"):
            self.assertEqual(self.setters(code), ["bench/b.cc"], code)

    def test_references_only_read_do_not(self):
        for code in ("const int& r = c.size; r2 = 2;",
                     "int& r = c.size; use(r);",
                     "int& r = c.size; x = r;",
                     "const auto& r = c.size; f(r.y);",
                     "int& r = c.size(); r = 2;"):
            self.assertEqual(self.setters(code), [], code)

    def test_bare_writes_in_the_structs_member_functions_count(self):
        for code in ("void WidgetConfig::apply(int n) { size = n; }",
                     "void WidgetConfig::grow() {\n  if (x) {\n"
                     "    size += 2;\n  }\n}",
                     "WidgetConfig::WidgetConfig() { size.push_back(1); }"):
            self.assertEqual(self.setters(code), ["bench/b.cc"], code)

    def test_bare_writes_elsewhere_do_not(self):
        for code in ("void Other::apply(int n) { size = n; }",
                     "void apply(int n) { size = n; }",
                     "void WidgetConfig::apply() { int size = 2; }",
                     "void WidgetConfig::apply();\nvoid f() { size = 2; }",
                     "void WidgetConfig::apply() { g(size == 2); }"):
            self.assertEqual(self.setters(code), [], code)


class Gate(unittest.TestCase):
    FIELDS = {"WidgetConfig::size": "src/w.h", "WidgetConfig::ratio":
              "src/w.h"}
    SOURCES = {"src/use.cc": {"size"}}

    def test_passes_when_every_unset_field_is_listed(self):
        self.assertEqual(option_gate.gate(
            self.FIELDS, self.SOURCES, {"WidgetConfig::ratio": "why"}), [])

    def test_unlisted_never_set_field_fails(self):
        failures = option_gate.gate(self.FIELDS, self.SOURCES, {})
        self.assertEqual(len(failures), 1)
        self.assertIn("never set outside tests and src/w.h: "
                      "WidgetConfig::ratio", failures[0])

    def test_listed_field_that_is_now_set_fails(self):
        failures = option_gate.gate(self.FIELDS, self.SOURCES, {
            "WidgetConfig::ratio": "why", "WidgetConfig::size": "why"})
        self.assertEqual(len(failures), 1)
        self.assertIn("now set (src/use.cc): WidgetConfig::size",
                      failures[0])

    def test_listed_field_that_no_longer_exists_fails(self):
        failures = option_gate.gate(self.FIELDS, self.SOURCES, {
            "WidgetConfig::ratio": "why", "WidgetConfig::gone": "why"})
        self.assertEqual(failures, ["listed field no longer exists: "
                                    "WidgetConfig::gone"])


class ReadList(unittest.TestCase):
    def read(self, text):
        with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                         delete=False) as f:
            f.write(text)
        try:
            return option_gate.read_list(f.name)
        finally:
            os.unlink(f.name)

    def test_entries_and_comments(self):
        self.assertEqual(self.read("# header\n\nA::b  # perfbench API\n"),
                         {"A::b": "perfbench API"})

    def test_missing_reason_exits(self):
        with self.assertRaises(SystemExit):
            self.read("A::b\n")

    def test_duplicate_exits(self):
        with self.assertRaises(SystemExit):
            self.read("A::b  # x\nA::b  # y\n")


class Repository(unittest.TestCase):
    """The gate on this repository, and on a copy with one more field."""

    def run_gate(self, root):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = option_gate.main([
                "--root", root,
                "--list", os.path.join(option_gate.ROOT,
                                       option_gate.ALLOWLIST)])
        return code, out.getvalue()

    def test_repository_passes(self):
        code, out = self.run_gate(option_gate.ROOT)
        self.assertEqual(code, 0, out)

    def test_injected_never_set_field_fails(self):
        with tempfile.TemporaryDirectory() as root:
            for top in option_gate.SEARCHED:
                shutil.copytree(os.path.join(option_gate.ROOT, top),
                                os.path.join(root, top))
            header = os.path.join(root, "src", "mesh", "circuit_breaker.h")
            with open(header) as f:
                text = f.read()
            anchor = "struct CircuitBreakerConfig {\n"
            self.assertIn(anchor, text)
            with open(header, "w") as f:
                f.write(text.replace(
                    anchor, anchor + "  int injected_knob = 7;\n"))
            code, out = self.run_gate(root)
        self.assertEqual(code, 1, out)
        self.assertIn("CircuitBreakerConfig::injected_knob", out)
        self.assertEqual(out.count("never set"), 1, out)


if __name__ == "__main__":
    unittest.main()
