#!/usr/bin/env python3
"""Static serialize/deserialize symmetry checker (PR 10, layer 3).

Every message type on the wire has a writer and a reader whose field
sequences must mirror each other exactly; a drifted pair corrupts every
frame that follows the asymmetric field. This checker parses both sides of
every pair and fails on any structural mismatch — before a test ever has to
chase the resulting frame-parse garbage.

Recognized definitions (scanned across src/**/*.{h,cpp}):

  void write_payload(serde::Writer& w, const T& m)   — payload writer for T
  void write_X(serde::Writer& w, ...)                — named helper writer
  T    read_x(serde::Reader& r)                      — reader

Pairing: a payload writer for type T pairs with `read_<snake(T)>`; a named
helper `write_X` pairs with `read_X`. Orphans on either side are errors.

Bodies canonicalize to op sequences:

  * primitives: w.u8/u16/u32/u64/f64/varint/str ↔ r.u8/.../str
  * w.blob(...) expands to [varint, bytes]; w.bytes(...) and r.view(...)
    are [bytes] (so an explicit reader-side varint+view mirrors one
    writer-side blob, or a writer-side varint+bytes)
  * helper calls normalize to the pair key: write_dim_load/read_dim_load
    → dim_load, write_payload(w, <expr of type T>) / read_<snake(T)> →
    payload:T
    (the expression's type is resolved from range-for loop variables and
    from struct field declarations parsed out of the headers)
  * `for (...) body` → ('loop', [body ops]) — the length varint that
    precedes it stays an explicit op on both sides
  * `w.seq(items, fn)` / `r.seq<T>(fn)` → [varint, ('loop', [fn's ops])],
    so a bounded reader-side seq mirrors a writer-side varint + for loop;
    `fn` is a helper name (`read_range`) or a lambda whose own
    Writer/Reader parameter carries the ops
  * `if (cond) {...}` with serde ops inside → ('cond', <normalized cond>,
    [ops]); the condition normalizes by dropping object prefixes, so
    writer `m.trace_id != 0` matches reader `m2.trace_id != 0`. Guard
    conditionals with no serde ops (error returns) vanish.

The envelope dispatcher pair (write_envelope/read_envelope) is checked by
cardinality instead: every payload type's reader must appear in exactly one
`case` of read_envelope, and the case count must equal the payload writer
count.

Exit codes: 0 clean, 1 violations found, 2 usage or internal error.
"""

import argparse
import os
import re
import sys
from collections import defaultdict

WRITER_OPS = ("u8", "u16", "u32", "u64", "f64", "varint", "str", "blob",
              "bytes", "raw")
READER_OPS = ("u8", "u16", "u32", "u64", "f64", "varint", "str", "view", "raw")


def strip_comments(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def find_matching(text, open_idx, open_ch, close_ch):
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


def snake(name):
    s = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", "_", name)
    s = re.sub(r"(?<=[A-Z])(?=[A-Z][a-z])", "_", s)
    return s.lower()


WRITER_DEF = re.compile(
    r"(?:inline\s+)?void\s+write_(\w+)\s*\(\s*serde::Writer&\s*(\w*)\s*,"
    r"\s*(?:const\s+)?([\w:]+)\s*&?\s*(\w*)\s*\)\s*\{"
)
READER_DEF = re.compile(
    r"(?:inline\s+)?([\w:]+)\s+read_(\w+)\s*\(\s*serde::Reader&\s*(\w*)\s*\)"
    r"\s*\{"
)
STRUCT_DEF = re.compile(r"\bstruct\s+(\w+)\s*(?::[^{]*)?\{")
FIELD = re.compile(
    r"^\s*([A-Za-z_][\w:]*(?:<[^;=]*>)?)\s+(\w+)\s*(?:=[^;]*|\{[^;]*\})?;"
)


class Def:
    def __init__(self, name, path, line, var, body):
        self.name = name
        self.path = path
        self.line = line
        self.var = var  # the Writer/Reader parameter name ('' if unnamed)
        self.body = body


def parse_defs(path, text):
    clean = strip_comments(text)
    writers, readers, structs = [], [], {}
    for m in WRITER_DEF.finditer(clean):
        open_idx = m.end() - 1
        end = find_matching(clean, open_idx, "{", "}")
        if end == -1:
            continue
        line = clean.count("\n", 0, m.start()) + 1
        d = Def(m.group(1), path, line, m.group(2), clean[open_idx:end + 1])
        d.param_type = m.group(3).split("::")[-1]
        d.param_name = m.group(4)
        writers.append(d)
    for m in READER_DEF.finditer(clean):
        open_idx = m.end() - 1
        end = find_matching(clean, open_idx, "{", "}")
        if end == -1:
            continue
        line = clean.count("\n", 0, m.start()) + 1
        d = Def(m.group(2), path, line, m.group(3), clean[open_idx:end + 1])
        d.ret_type = m.group(1).split("::")[-1]
        readers.append(d)
    for m in STRUCT_DEF.finditer(clean):
        end = find_matching(clean, m.end() - 1, "{", "}")
        if end == -1:
            continue
        fields = {}
        for line_text in clean[m.end():end].split(";"):
            fm = FIELD.match(line_text.strip() + ";")
            if fm and "(" not in fm.group(1):
                fields[fm.group(2)] = fm.group(1)
        structs[m.group(1)] = fields
    return writers, readers, structs


def norm_cond(cond):
    """`m.trace_id != 0` and `msg.trace_id != 0` → `trace_id!=0`."""
    c = re.sub(r"\b\w+\s*\.\s*", "", cond)
    c = re.sub(r"\b\w+\s*->\s*", "", c)
    return re.sub(r"\s+", "", c)


class OpExtractor:
    """Turns a writer/reader body into a canonical op tree."""

    def __init__(self, side, var, prog, ctx):
        self.side = side          # 'w' or 'r'
        self.var = var or ("w" if side == "w" else "r")
        self.prog = prog
        self.ctx = ctx            # enclosing Def (for member type lookups)
        self.ops_re = re.compile(
            rf"\b{re.escape(self.var)}\s*\.\s*(\w+)\s*\("
        )
        self.call_re = re.compile(r"\b(write_\w+|read_\w+)\s*\(")
        self.seq_re = re.compile(
            rf"\b{re.escape(self.var)}\s*\.\s*seq\s*(?:<[^>]*>)?\s*\("
        )

    def extract(self, body):
        # body includes the outer braces
        return self._block(body[1:-1])

    def _block(self, text):
        ops = []
        i, n = 0, len(text)
        while i < n:
            m = re.compile(r"\b(for|if|while)\s*\(").search(text, i)
            if not m:
                ops.extend(self._flat(text[i:]))
                break
            ops.extend(self._flat(text[i:m.start()]))
            head_close = find_matching(text, m.end() - 1, "(", ")")
            if head_close == -1:
                break
            head = text[m.end():head_close]
            j = head_close + 1
            while j < n and text[j] in " \t\n":
                j += 1
            if j < n and text[j] == "{":
                body_end = find_matching(text, j, "{", "}")
                inner = text[j + 1:body_end]
                i = body_end + 1
            else:
                body_end = self._stmt_end(text, j)
                inner = text[j:body_end]
                i = body_end + 1
            sub = self._block(inner)
            kw = m.group(1)
            if kw in ("for", "while"):
                if sub:
                    ops.append(("loop", tuple(sub)))
            else:  # if
                if sub:
                    ops.append(("cond", norm_cond(head), tuple(sub)))
        return ops

    def _stmt_end(self, text, start):
        depth = 0
        for i in range(start, len(text)):
            c = text[i]
            if c in "({":
                depth += 1
            elif c in ")}":
                depth -= 1
            elif c == ";" and depth == 0:
                return i + 1
        return len(text)

    def _flat(self, text):
        """Serde ops and helper calls in a straight-line region."""
        found = []
        for m in list(self.seq_re.finditer(text)):
            close = find_matching(text, m.end() - 1, "(", ")")
            if close == -1:
                continue
            found.append((m.start(), self._seq(text[m.end():close])))
            # The element ops were taken above; blank the call so the scans
            # below do not see them again.
            text = text[:m.start()] + " " * (close + 1 - m.start()) + \
                text[close + 1:]
        for m in self.ops_re.finditer(text):
            op = m.group(1)
            valid = WRITER_OPS if self.side == "w" else READER_OPS
            if op in valid:
                found.append((m.start(), self._prim(op)))
        for m in self.call_re.finditer(text):
            token = self._helper_token(m.group(1), text, m.end())
            if token is not None:
                found.append((m.start(), [("call", token)]))
        out = []
        for _, ops in sorted(found, key=lambda kv: kv[0]):
            out.extend(ops)
        return out

    def _seq(self, args):
        """[varint, loop] for the element function, the last seq argument."""
        lam = re.search(r"\[[^\]]*\]\s*\(", args)
        fn = args[lam.start():] if lam else args.rsplit(",", 1)[-1].strip()
        named = re.fullmatch(r"(write_\w+|read_\w+)", fn)
        inner = [("prim", "?seq")]  # unparsed: never matches the other side
        if named:
            token = self._helper_token(named.group(1), "", 0)
            if token is not None:
                inner = [("call", token)]
        elif lam:
            param = re.search(r"serde::(?:Writer|Reader)&\s*(\w+)", fn)
            open_idx = fn.find("{")
            close = find_matching(fn, open_idx, "{", "}") if open_idx != -1 \
                else -1
            if param and close != -1:
                sub = OpExtractor(self.side, param.group(1), self.prog,
                                  self.ctx)
                inner = sub._block(fn[open_idx + 1:close])
        return [("prim", "varint"), ("loop", tuple(inner))]

    def _prim(self, op):
        if op == "blob":
            return [("prim", "varint"), ("prim", "bytes")]
        if op in ("view", "bytes"):
            return [("prim", "bytes")]
        return [("prim", op)]

    def _helper_token(self, callee, text, args_start):
        prog = self.prog
        if self.side == "w":
            name = callee[len("write_"):]
            if name == "envelope":
                return None
            if name == "payload":
                close = find_matching(text, args_start - 1, "(", ")")
                args = text[args_start:close] if close != -1 else ""
                parts = [a.strip() for a in args.split(",", 1)]
                expr = parts[1] if len(parts) == 2 else ""
                t = prog.expr_type(self.ctx, expr)
                return f"payload:{t or '?'}"
            if name in prog.named_writers:
                return name
            return None  # unknown write_* helper: flagged separately
        name = callee[len("read_"):]
        if name == "envelope":
            return None
        if name in prog.payload_readers:
            return f"payload:{prog.payload_readers[name]}"
        if name in prog.named_readers:
            return name
        return None


class Program:
    def __init__(self):
        self.writers = []        # all write_* Defs
        self.readers = []        # all read_* Defs
        self.structs = {}        # struct name -> {field: type}
        self.payload_writers = {}   # type T -> Def
        self.named_writers = {}     # helper name -> Def
        self.named_readers = {}     # helper name -> Def
        self.payload_readers = {}   # snake name -> type T
        self.envelope_reader = None

    def index(self):
        for d in self.writers:
            if d.name == "payload":
                self.payload_writers[d.param_type] = d
            elif d.name != "envelope":
                self.named_writers[d.name] = d
        snake_to_type = {snake(t): t for t in self.payload_writers}
        for d in self.readers:
            if d.name == "envelope":
                self.envelope_reader = d
            elif d.name in snake_to_type:
                self.payload_readers[d.name] = snake_to_type[d.name]
            else:
                self.named_readers[d.name] = d

    def expr_type(self, ctx, expr):
        """Type of `expr` inside writer `ctx` (loop var or member access)."""
        expr = expr.strip()
        # range-for loop variable: `for (const T& x : ...)` anywhere in body
        m = re.search(
            rf"for\s*\(\s*(?:const\s+)?([\w:]+)\s*&?\s+{re.escape(expr)}\s*:",
            ctx.body,
        )
        if m:
            return m.group(1).split("::")[-1]
        # member of the message parameter: `m.delivery`
        pm = re.match(rf"{re.escape(ctx.param_name)}\s*\.\s*(\w+)$", expr)
        if pm:
            fields = self.structs.get(ctx.param_type, {})
            t = fields.get(pm.group(1))
            if t:
                return t.split("::")[-1].split("<")[0]
        # the message parameter itself
        if expr == ctx.param_name:
            return ctx.param_type
        return None


def fmt_ops(ops, indent=0):
    lines = []
    pad = "  " * indent
    for op in ops:
        if op[0] == "prim":
            lines.append(f"{pad}{op[1]}")
        elif op[0] == "call":
            lines.append(f"{pad}{op[1]}")
        elif op[0] == "loop":
            lines.append(f"{pad}loop:")
            lines.extend(fmt_ops(op[1], indent + 1))
        elif op[0] == "cond":
            lines.append(f"{pad}if {op[1]}:")
            lines.extend(fmt_ops(op[2], indent + 1))
    return lines


def canon(ops):
    out = []
    for op in ops:
        if op[0] == "loop":
            out.append(("loop", canon(op[1])))
        elif op[0] == "cond":
            out.append(("cond", op[1], canon(op[2])))
        else:
            out.append(op)
    return tuple(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument(
        "--root",
        default=os.path.normpath(
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
        ),
        help="repository root (default: two levels above this script)",
    )
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    if not os.path.isdir(src):
        print(f"bd_serde_check: no src/ under {args.root}", file=sys.stderr)
        return 2

    prog = Program()
    for dirpath, _, names in os.walk(src):
        for name in sorted(names):
            if not name.endswith((".h", ".cpp")):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
            writers, readers, structs = parse_defs(path, text)
            prog.writers.extend(writers)
            prog.readers.extend(readers)
            for sname, fields in structs.items():
                prog.structs.setdefault(sname, {}).update(fields)
    prog.index()

    errors = []

    def rel(d):
        return f"{os.path.relpath(d.path, args.root)}:{d.line}"

    pairs = []
    for t, wd in sorted(prog.payload_writers.items()):
        rname = snake(t)
        if rname not in prog.payload_readers:
            errors.append(
                f"{rel(wd)}: payload writer for {t} has no reader "
                f"read_{rname}()"
            )
            continue
        rd = next(d for d in prog.readers if d.name == rname)
        pairs.append((f"payload:{t}", wd, rd))
    for name, wd in sorted(prog.named_writers.items()):
        if name not in prog.named_readers:
            errors.append(
                f"{rel(wd)}: helper writer write_{name}() has no reader "
                f"read_{name}()"
            )
            continue
        pairs.append((name, wd, prog.named_readers[name]))
    paired_readers = {rd.name for _, _, rd in pairs}
    for d in prog.readers:
        if d.name == "envelope" or d.name in paired_readers:
            continue
        errors.append(
            f"{rel(d)}: reader read_{d.name}() has no matching writer"
        )

    mismatches = 0
    for key, wd, rd in pairs:
        w_ops = canon(OpExtractor("w", wd.var, prog, wd).extract(wd.body))
        r_ops = canon(OpExtractor("r", rd.var, prog, rd).extract(rd.body))
        if w_ops != r_ops:
            mismatches += 1
            errors.append(
                f"{rel(wd)}: serde asymmetry in pair '{key}' "
                f"(reader at {rel(rd)})\n"
                + "    writer ops:\n"
                + "\n".join("      " + s for s in fmt_ops(w_ops))
                + "\n    reader ops:\n"
                + "\n".join("      " + s for s in fmt_ops(r_ops))
            )

    # Envelope dispatcher: each payload type must be decoded in exactly one
    # switch case, and the case count must cover every payload writer.
    if prog.envelope_reader is not None:
        body = prog.envelope_reader.body
        cases = re.findall(r"\bread_(\w+)\s*\(", body)
        seen = defaultdict(int)
        for rname in cases:
            seen[rname] += 1
        for t in sorted(prog.payload_writers):
            rname = snake(t)
            if seen.get(rname, 0) == 0:
                errors.append(
                    f"{rel(prog.envelope_reader)}: read_envelope() never "
                    f"dispatches read_{rname}() for payload {t}"
                )
            elif seen[rname] > 1:
                errors.append(
                    f"{rel(prog.envelope_reader)}: read_envelope() "
                    f"dispatches read_{rname}() {seen[rname]} times"
                )
    elif prog.payload_writers:
        errors.append("read_envelope() not found but payload writers exist")

    if args.verbose:
        print(
            f"bd_serde_check: {len(prog.payload_writers)} payload pairs, "
            f"{len(prog.named_writers)} helper pairs, "
            f"{mismatches} asymmetric"
        )

    if errors:
        for e in errors:
            print(e)
        print(f"bd_serde_check: {len(errors)} violation(s)")
        return 1
    print("bd_serde_check: OK")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(2)
