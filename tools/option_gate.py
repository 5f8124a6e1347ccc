#!/usr/bin/env python3
"""Option gate: every config field has a caller that sets it, or a reason.

    python3 tools/option_gate.py
    python3 tools/option_gate.py --root=DIR --list=FILE
    python3 tools/option_gate.py --inventory

A config struct is a `struct` (top level or nested) in `src/**/*.h` whose
name ends in Config, Options, Policy, Policies, Spec or Params, or a base
struct one of them derives from. Each of its data members is an option.
An option is set when some program file outside `tests/` and outside the
header that declares it writes it by name: `x.NAME = ...`,
`x->NAME = ...`, a designated initializer `{.NAME = ...}`, a write into a
member or element of it (`x.NAME.y = ...`, `x.NAME[k] = ...`), an
insertion into it (`x.NAME.push_back(...)`, `emplace`, `insert`, ...),
a write through a non-const reference bound to it (`T& r = x.NAME;`
and later `r = ...` or any of the writes above on `r`), or, inside an
out-of-line member function of the struct (`Struct::f(...) {...}`), a
statement that assigns the bare name (`NAME = ...`).
The files searched are the C++ sources under `src/`, `bench/`,
`examples/` and `tools/`; `perfbench/` is not searched, so a field only
perfbench sets is listed with the reason "perfbench API". Positional
aggregate initialization names no field, so a field set only that way is
listed too.

A field never set is either folded into a constant or listed in
`bench/baselines/option_allowlist.txt` as `Struct::field  # reason`. The
gate exits 1 on an unlisted field that nothing sets, on a listed field
that is now set, and on a listed field that no longer exists.

Matching is by field name, so a name two structs share counts as set for
both when either is set; the gate errs towards passing, never towards a
false failure. `--inventory` prints every field with its setters.
"""

import argparse
import glob
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEARCHED = ("src", "bench", "examples", "tools")
SOURCE_EXTENSIONS = (".h", ".cc", ".cpp")
ALLOWLIST = os.path.join("bench", "baselines", "option_allowlist.txt")
CONFIG_NAME = re.compile(r"(Config|Options|Policy|Policies|Spec|Params)$")
SCOPE_HEAD = re.compile(
    r"\b(struct|class)\s+(\w+)\s*(final\s*)?(:[^;{}]*)?$")
# `.NAME` or `->NAME`, and what makes it a write when it follows the name:
# an assignment (through members and subscripts) or an insertion.
MEMBER = re.compile(r"(?:\.|->)\s*(\w+)")
WRITE = re.compile(r"\s*(?:(?:\[[^\]]*\]|\.\w+)\s*)*"
                   r"(?:[-+*/%|&^]|<<|>>)?=(?!=)|"
                   r"\s*\.\s*(?:push_back|emplace_back|emplace|emplace_hint|"
                   r"insert|try_emplace)\s*\(")
# `T& REF = x.NAME;` (or `->NAME`): the statement's text up to the `&`,
# the reference's name and the field's name.
REFERENCE = re.compile(r"([^;{}()]*?)&\s*(\w+)\s*=\s*[\w\s.\->()\[\]]*?"
                       r"(?:\.|->)\s*(\w+)\s*;")
# The head of an out-of-line member function definition: `Owner::name(`.
MEMBER_FUNCTION = re.compile(r"\b(\w+)\s*::\s*~?\w+\s*\(")
# The first name of a statement (right after `;`, `{` or `}`). It is
# written when WRITE follows it; a declaration starts with its type, so
# `int NAME = ...` is not a write of NAME.
STATEMENT_NAME = re.compile(r"(?:^|(?<=[;{}]))\s*(\w+)", re.M)
NOT_A_FIELD = ("static ", "using ", "friend ", "typedef ", "template",
               "enum ", "struct ", "class ", "public:", "private:",
               "protected:")


def strip_comments(text):
    """`text` with comments, string and char literals blanked out."""
    pattern = re.compile(r'//[^\n]*|/\*.*?\*/|"(\\.|[^"\\])*"|'
                         r"'(\\.|[^'\\])*'", re.S)

    def blank(match):
        token = match.group(0)
        if token.startswith(("//", "/*")):
            return re.sub(r"[^\n]", " ", token)
        return token[0] + " " * (len(token) - 2) + token[-1]

    return pattern.sub(blank, text)


def field_name(statement):
    """The data member a depth-1 struct statement declares, or None."""
    text = " ".join(statement.split())
    if not text or text.startswith(NOT_A_FIELD) or "operator" in text:
        return None
    # Cut the default member initializer: the first top-level `=` or `{`.
    depth = 0
    for i, ch in enumerate(text):
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth -= 1
        elif depth == 0 and ch in "={":
            text = text[:i].strip()
            break
    if text.endswith((")", "const", "noexcept", "default", "delete")):
        return None  # a member function or constructor
    match = re.search(r"(\w+)\s*(\[[^\]]*\])?$", text)
    if match is None or " " not in text.replace("::", ""):
        return None
    return match.group(1)


def struct_fields(text):
    """Yields (qualified struct name, bases, field) for one header's text.

    `bases` are the simple names after the struct's `:`. Only `struct`
    scopes hold fields here: a class's members are its private state.
    """
    text = strip_comments(text)
    scopes = []  # [name or None, is a struct, bases]
    statement = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "{":
            head = "".join(statement).strip()
            match = SCOPE_HEAD.search(head)
            in_struct = scopes and scopes[-1][1]
            if match:
                bases = re.findall(r"(\w+)\s*(?:,|$)", match.group(4) or "")
                scopes.append([match.group(2), match.group(1) == "struct",
                               bases])
            elif in_struct and not head.endswith(
                    (")", "const", "noexcept", "override")):
                # A brace initializer: keep it in the statement.
                depth = 0
                while i < len(text):
                    depth += {"{": 1, "}": -1}.get(text[i], 0)
                    statement.append(text[i])
                    i += 1
                    if depth == 0:
                        break
                continue
            else:
                scopes.append([None, False, []])
            statement = []
        elif ch == "}":
            if scopes:
                scopes.pop()
            statement = []
        elif ch == ";":
            if scopes and scopes[-1][1]:
                name = field_name("".join(statement))
                if name is not None:
                    qualified = "::".join(s[0] for s in scopes if s[0])
                    yield qualified, scopes[-1][2], name
            statement = []
        else:
            statement.append(ch)
        i += 1


def collect_fields(root):
    """{"Struct::field": header path relative to root} over src/**/*.h,
    for every config struct and every base a config struct derives from."""
    fields = {}  # struct -> [(field, header)]
    bases = {}  # struct -> base names
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*.h"),
                                 recursive=True)):
        rel = os.path.relpath(path, root)
        with open(path) as f:
            for struct, struct_bases, name in struct_fields(f.read()):
                fields.setdefault(struct, []).append((name, rel))
                bases[struct] = struct_bases
    wanted = [s for s in fields
              if CONFIG_NAME.search(s.rpartition("::")[2])]
    config = set()
    while wanted:
        struct = wanted.pop()
        if struct in config:
            continue
        config.add(struct)
        wanted.extend(b for b in bases.get(struct, []) if b in fields)
    return {f"{struct}::{name}": header
            for struct in config for name, header in fields[struct]}


def reference_writes(text):
    """Names of fields bound to a non-const reference that `text` later
    writes through (`T& r = x.NAME; ... r = ...`)."""
    names = set()
    for m in REFERENCE.finditer(text):
        prefix, ref, name = m.groups()
        if re.search(r"\bconst\b", prefix):
            continue
        use = re.compile(r"(?<![\w.>:])" + re.escape(ref) + r"\b")
        if any(WRITE.match(text, u.end())
               for u in use.finditer(text, m.end())):
            names.add(name)
    return names


def body_end(text, start):
    """The index just past the brace block opening at `text[start]`."""
    depth = 0
    for i in range(start, len(text)):
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        if depth == 0:
            return i + 1
    return len(text)


def member_function_writes(text):
    """`Owner::NAME` for every bare name an out-of-line member function
    of Owner assigns (`void Owner::f() { NAME = ...; }`)."""
    names = set()
    for m in MEMBER_FUNCTION.finditer(text):
        # The parameter list, then the body; a `;` first means a call or
        # a declaration, not a definition.
        depth, i = 0, m.end() - 1
        while i < len(text):
            depth += {"(": 1, ")": -1}.get(text[i], 0)
            i += 1
            if depth == 0:
                break
        brace = text.find("{", i)
        semicolon = text.find(";", i)
        if brace < 0 or 0 <= semicolon < brace:
            continue
        body = text[brace + 1:body_end(text, brace) - 1]
        names.update(f"{m.group(1)}::{s.group(1)}"
                     for s in STATEMENT_NAME.finditer(body)
                     if WRITE.match(body, s.end()))
    return names


def written_names(text):
    """Every member name `text` writes (see the module docstring); a name
    written bare inside Owner's member functions is `Owner::NAME`."""
    names = {m.group(1) for m in MEMBER.finditer(text)
             if WRITE.match(text, m.end())}
    return names | reference_writes(text) | member_function_writes(text)


def collect_sources(root):
    """{relative path: written_names} of every searched program file."""
    sources = {}
    for top in SEARCHED:
        for path in sorted(glob.glob(os.path.join(root, top, "**", "*"),
                                     recursive=True)):
            if path.endswith(SOURCE_EXTENSIONS) and os.path.isfile(path):
                with open(path) as f:
                    sources[os.path.relpath(path, root)] = written_names(
                        strip_comments(f.read()))
    return sources


def setters(field, header, sources):
    """Files other than `header` that write the field by name."""
    struct, _, name = field.rpartition("::")
    owned = struct.rpartition("::")[2] + "::" + name
    return [path for path, names in sources.items()
            if path != header and (name in names or owned in names)]


def read_list(path):
    """{"Struct::field": reason}; exits on a malformed line."""
    listed = {}
    with open(path) as f:
        for number, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, reason = line.partition("#")
            key = key.strip()
            if not sep or not reason.strip() or "::" not in key \
                    or " " in key:
                sys.exit(f"{path}:{number}: expected "
                         f"`Struct::field  # reason`")
            if key in listed:
                sys.exit(f"{path}:{number}: {key} listed twice")
            listed[key] = reason.strip()
    return listed


def gate(fields, sources, listed):
    """Returns the list of failure messages (empty when the gate passes)."""
    failures = []
    for field in sorted(fields):
        set_by = setters(field, fields[field], sources)
        if not set_by and field not in listed:
            failures.append(
                f"never set outside tests and {fields[field]}: {field}; "
                f"fold it into a constant or list it with a reason")
        elif set_by and field in listed:
            failures.append(f"listed field is now set ({set_by[0]}): "
                            f"{field}; drop its allowlist line")
    for field in sorted(listed):
        if field not in fields:
            failures.append(f"listed field no longer exists: {field}")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=ROOT,
                        help="repository root holding src/ and bench/")
    parser.add_argument("--list", default=None,
                        help="the allowlist (default: " + ALLOWLIST + ")")
    parser.add_argument("--inventory", action="store_true",
                        help="print every field and the files that set it")
    args = parser.parse_args(argv)

    fields = collect_fields(args.root)
    if not fields:
        sys.exit(f"no config structs under {args.root}/src")
    sources = collect_sources(args.root)
    if args.inventory:
        for field in sorted(fields):
            set_by = setters(field, fields[field], sources)
            print(f"{field}  {fields[field]}  <- {', '.join(set_by) or '-'}")
        return 0
    listed = read_list(args.list or os.path.join(args.root, ALLOWLIST))
    failures = gate(fields, sources, listed)
    structs = {field.rpartition("::")[0] for field in fields}
    print(f"{len(structs)} config structs, {len(fields)} fields; "
          f"{len(listed)} listed")
    for message in failures:
        print(message)
    print("option gate: " + ("FAIL" if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
