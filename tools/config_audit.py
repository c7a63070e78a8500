#!/usr/bin/env python3
"""Lists every settable configuration value and the code that sets it.

    python3 tools/config_audit.py [--max-settable N] [ROOT]

Scans ROOT/src/**/*.hpp (ROOT defaults to the repository this script lives
in) for every struct whose name ends in Config, Options or Knobs, nested
ones included, and lists each data member with the file:line of every
writer found in ROOT's src/, bench/, examples/, tests/ and perfbench/.

A writer is an assignment through a member access (`x.f = v`, `p->f += v`,
`x.f.g = v`, `x.f[k] = v`, a designated initializer `.f = v`) or a
mutating call on the member (`x.f.emplace(...)` and the like); it writes
every member it names. A copy of another member (`x.f = y.g`, nothing but
a member access on the right) only passes a value along: `f` counts as
written only when `g` is. A member is attributed to its struct through the
declared type of the variable it is accessed on (found in the same file or
the header beside it) and the declared types of the members along the
chain; where no type is found, every struct with a member of that name is
credited. Comments and string literals are ignored.

Prints the total number of settable values and exits 1 when any of them
has no writer (a value nobody sets is a constant) or when the total is above
--max-settable, 2 on usage errors. The bound lets the count grow only
through an edit that raises it.
"""

import argparse
import re
import sys
from pathlib import Path

STRUCT = re.compile(r"\bstruct\s+(\w*(?:Config|Options|Knobs))\s*(?:final\s*)?\{")
WRITER_DIRS = ("src", "bench", "examples", "tests", "perfbench")
SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}
MUTATORS = {"emplace", "emplace_back", "insert", "insert_or_assign", "push_back", "assign",
            "clear", "erase", "reset"}
# An optional receiver and a member chain (possessive: chains never
# backtrack), then an assignment and its right-hand side, or a call.
CHAIN = r"(?:\b(\w+))?((?:\s*+(?:\.|->)\s*+\w++|\s*+\[[^\];]*+\])++)"
ASSIGN = re.compile(CHAIN + r"\s*(?:[-+*/%&|^]|<<|>>)?=(?!=)([^;,}]*)")
CALL = re.compile(CHAIN + r"\s*\(")
COPY = re.compile(r"([A-Za-z_]\w*)((?:\s*(?:\.|->)\s*[A-Za-z_]\w*)+)")
CHAIN_STEP = re.compile(r"(?:\.|->)\s*(\w+)|\[")
LEXEMES = re.compile(r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'", re.S)
# `Type name` (then one of ; , ) = { [) or the end of an unnamed struct
DECLARATION = re.compile(r"([A-Za-z_][\w:]*(?:<[^;{}()]*>)?)[\s&*]+([A-Za-z_]\w*)\s*(?=[;,)={\[])"
                         r"|\}\s*([A-Za-z_]\w*)\s*;")
OTHER = "<other type>"
KEYWORDS = {"return", "delete", "new", "throw", "case", "goto", "else", "do", "co_return"}


def strip_code(text):
    """Blanks comments and string/char literals, keeping line breaks."""
    return LEXEMES.sub(lambda m: m.group(0)[0] + re.sub(r"[^\n]", " ", m.group(0)[1:])
                       if m.group(0)[0] in "\"'" else re.sub(r"[^\n]", " ", m.group(0)), text)


def matching_brace(text, open_at):
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    raise ValueError("unbalanced braces")


def parse_field(statement):
    """(name, type text) of a data-member declaration, or None."""
    statement = re.sub(r"^\s*(?:public|private|protected)\s*:", "", statement).strip()
    if not statement or re.match(r"(?:static|using|typedef|friend|constexpr|template)\b",
                                 statement):
        return None
    declarator = re.split(r"=|\{", statement, maxsplit=1)[0]
    if "(" in declarator:
        return None  # a member function declaration
    declarator = re.sub(r"\[[^\]]*\]", "", declarator).strip()
    m = re.search(r"(\w+)\s*$", declarator)
    if not m or not declarator[:m.start()].strip():
        return None
    return m.group(1), declarator[:m.start()]


def struct_fields(body):
    """(name, type text) of the data members at the top level of a body."""
    fields = []
    statement = []
    i, n = 0, len(body)
    while i < n:
        c = body[i]
        if c == "{":
            head = "".join(statement).strip()
            close = matching_brace(body, i)
            if re.search(r"\)\s*(?:const\s*)?(?:noexcept\s*)?(?:override\s*)?$", head) or \
                    re.match(r"(?:public:|private:|protected:)?\s*(?:struct|class|enum|union)\b",
                             head):
                # A function or nested type body: not a field of this struct.
                statement = []
                i = close + 1
                continue
            statement.append(body[i:close + 1])  # brace initializer
            i = close + 1
            continue
        if c == ";":
            field = parse_field("".join(statement))
            if field:
                fields.append(field)
            statement = []
        else:
            statement.append(c)
        i += 1
    return fields


def find_structs(root):
    """[(name, path, line, [(field, type text)])] in path order."""
    structs = []
    for path in sorted((root / "src").rglob("*.hpp")):
        text = strip_code(path.read_text())
        for m in STRUCT.finditer(text):
            open_at = m.end() - 1
            body = text[open_at + 1:matching_brace(text, open_at)]
            line = text.count("\n", 0, m.start()) + 1
            structs.append((m.group(1), path.relative_to(root), line, struct_fields(body)))
    return structs


class Resolver:
    """Attributes a member access to the struct(s) it can name."""

    def __init__(self, structs):
        self.fields = {}  # struct -> {field: struct type of the field or None}
        self.owners = {}  # field -> structs declaring it
        for name, _, _, fields in structs:
            for field, type_text in fields:
                self.owners.setdefault(field, set()).add(name)
        names = {name for name, _, _, _ in structs}
        for name, _, _, fields in structs:
            own = self.fields.setdefault(name, {})
            for field, type_text in fields:
                known = [t for t in re.findall(r"\w+", type_text) if t in names]
                own[field] = known[-1] if known else None
        self.names = names

    def declared_type(self, declarations, var, pos):
        """Type of `var` at `pos` from its nearest earlier declaration in
        the file, else its first one in the file or the header beside it:
        a struct name, OTHER for a type that is no audited struct, or None
        when no declaration names a type (none found, or `auto`)."""
        found = declarations.get(var)
        if not found:
            return None
        earlier = [kind for at, kind in found if at < pos]
        return earlier[-1] if earlier else found[0][1]

    def declarations(self, text, header):
        """{variable: [(position, type)]} of the declarations in `text`
        (positions) and `header` (after all of them), types as above."""
        out = {}
        for offset, source in ((0, text), (len(text), header)):
            for m in DECLARATION.finditer(source):
                if m.group(1) is None:  # `struct { ... } name;`
                    out.setdefault(m.group(3), []).append((offset + m.start(), OTHER))
                    continue
                words = re.findall(r"\w+", m.group(1))
                if words[-1] in KEYWORDS:
                    continue
                known = [t for t in words if t in self.names]
                kind = known[-1] if known else (None if "auto" in words else OTHER)
                out.setdefault(m.group(2), []).append((offset + m.start(), kind))
        return out

    def chain(self, receiver_type, chain):
        """Per member named in `chain`: the set of (struct, field) keys."""
        keys = []
        current = receiver_type
        for step in CHAIN_STEP.finditer(chain):
            field = step.group(1)
            if field is None:  # a subscript: the element type is unknown
                current = None
                continue
            if current is None:
                keys.append({(owner, field) for owner in self.owners.get(field, ())})
            elif current is OTHER:
                keys.append(set())  # a member of another type, itself of
                current = None      # a type not known here
            else:
                members = self.fields[current]
                keys.append({(current, field)} if field in members else set())
                current = members.get(field) or OTHER
        return keys


def find_writers(root, structs):
    """{(struct, field): [file:line]} after copies are followed."""
    resolver = Resolver(structs)
    direct = {}
    copies = []  # (destination keys, source keys, where)
    for directory in WRITER_DIRS:
        base = root / directory
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            text = strip_code(path.read_text(errors="replace"))
            sibling = path.with_suffix(".hpp")
            header = strip_code(sibling.read_text()) if sibling != path and sibling.is_file() \
                else ""
            rel = path.relative_to(root)
            declarations = resolver.declarations(text, header)

            def keys_at(receiver, chain, pos):
                receiver_type = None
                if receiver:
                    receiver_type = resolver.declared_type(declarations, receiver, pos)
                return resolver.chain(receiver_type, chain)

            for pattern in (ASSIGN, CALL):
                for m in pattern.finditer(text):
                    where = f"{rel}:{text.count(chr(10), 0, m.start()) + 1}"
                    chain = m.group(2)
                    if pattern is CALL:
                        last = re.search(r"(?:\.|->)\s*(\w+)$", chain)
                        if not last or last.group(1) not in MUTATORS:
                            continue
                        chain = chain[:last.start()]
                    members = keys_at(m.group(1), chain, m.start())
                    if not members:
                        continue
                    rhs = m.group(3).strip() if pattern is ASSIGN else ""
                    source = COPY.fullmatch(rhs)
                    if source and not re.search(r"[(\[]", rhs):
                        src = keys_at(source.group(1), source.group(2), m.start())
                        if src:
                            copies.append((members, src[-1], where))
                            continue
                    for keys in members:
                        for key in keys:
                            direct.setdefault(key, []).append(where)
    # A copy writes its destination once its source is written.
    changed = True
    while changed:
        changed = False
        for members, src, where in copies:
            if not any(key in direct for key in src):
                continue
            for keys in members:
                for key in keys:
                    if where not in direct.setdefault(key, []):
                        direct[key].append(where)
                        changed = True
    return direct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=Path(__file__).resolve().parent.parent,
                        type=Path)
    parser.add_argument("--max-settable", type=int, metavar="N",
                        help="fail when more than N values are settable")
    args = parser.parse_args()
    if not (args.root / "src").is_dir():
        print(f"config_audit: no src/ under {args.root}", file=sys.stderr)
        return 2

    structs = find_structs(args.root)
    writers = find_writers(args.root, structs)
    total = unwritten = 0
    for name, path, line, fields in structs:
        print(f"{name} ({path}:{line})")
        for field, _ in fields:
            found = writers.get((name, field), [])
            total += 1
            unwritten += not found
            print(f"  {field:<28} {len(found):>3} writer{'s' if len(found) != 1 else ''}"
                  + ("  <-- no writer" if not found else ""))
            lines = {}
            for where in found:
                file, at = where.rsplit(":", 1)
                lines.setdefault(file, []).append(at)
            for file, ats in lines.items():
                print(f"      {file}:{','.join(ats)}")
    print(f"total: {total} settable values in {len(structs)} structs; "
          f"{unwritten} without a writer")
    over = args.max_settable is not None and total > args.max_settable
    if over:
        print(f"config_audit: {total} settable values, more than the "
              f"{args.max_settable} allowed", file=sys.stderr)
    return 1 if unwritten or over else 0


if __name__ == "__main__":
    sys.exit(main())
