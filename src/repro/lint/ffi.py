"""C <-> ctypes FFI prototype checker (R110).

An ``argtypes`` declaration that drifts from the C signature it binds is
the nastiest failure mode in the repo: nothing crashes at import, the
kernel runs, and a ``long``/``int`` width mismatch or a missing pointer
level silently corrupts memory or truncates arguments -- producing
numbers that are *wrong*, not absent.  No test can reliably catch that
after the fact, so this pass catches it at lint time by parsing both
sides of the boundary:

* the **C side**: a small declaration parser over ``*.c`` sources that
  extracts every exported (non-``static``) top-level function -- name,
  return type, and parameter types, normalised to pointer-ness plus
  base width (``const``/``restrict`` qualifiers dropped);
* the **Python side**: the ``lib.<symbol>.argtypes = [...]`` /
  ``lib.<symbol>.restype = ...`` assignments of any module in the same
  directory, with module-level constants like
  ``_DOUBLE_P = ctypes.POINTER(ctypes.c_double)`` resolved.

The two inventories must agree exactly: same symbol set in both
directions (coverage), same arity, and per-argument identical
pointer-ness and integer/float width.  ``long`` vs ``int`` is a finding
-- that is precisely the drift that works on LP64 Linux and corrupts on
LLP64.

The C parser is deliberately minimal: it recognises the repo's own
style (function definitions and prototypes starting at column 0, no
function pointers, no varargs).  Anything it cannot parse it skips --
conservative, like every other project pass.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding
from repro.lint.project import ModuleInfo, ProjectContext
from repro.lint.registry import ProjectRule, register

__all__ = [
    "CDecl",
    "CtypesDecl",
    "FfiPrototypeRule",
    "parse_c_exports",
    "parse_ctypes_decls",
]

#: C type keywords that can form a base type (qualifiers handled apart).
_C_TYPE_WORDS = frozenset(
    {
        "void",
        "char",
        "short",
        "int",
        "long",
        "float",
        "double",
        "signed",
        "unsigned",
        "size_t",
        "_Bool",
    }
)

_C_QUALIFIERS = frozenset({"const", "restrict", "volatile", "register"})

#: Tokens in a declaration head that mark it as not-an-export.
_C_SKIP_HEAD = frozenset({"static", "typedef", "return", "else", "inline"})

_COMMENT_RE = re.compile(r"/\*.*?\*/|//[^\n]*", re.DOTALL)

#: Function definitions/prototypes at column 0:
#: ``<head words> name ( params ) {`` or ``... ;``.
_C_FUNC_RE = re.compile(
    r"^(?P<head>(?:[A-Za-z_][A-Za-z0-9_]*[ \t\n*]+)+)"
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)[ \t\n]*\("
    r"(?P<params>[^()]*)\)[ \t\n]*(?:\{|;)",
    re.MULTILINE,
)


def _blank_comments(source: str) -> str:
    """Replace comments with spaces, preserving line numbers."""

    def blank(match: re.Match) -> str:
        return "".join("\n" if ch == "\n" else " " for ch in match.group(0))

    return _COMMENT_RE.sub(blank, source)


class CDecl:
    """One exported C function: name, return, parameter descriptors.

    A descriptor is ``"double*"`` / ``"long"`` / ``"void"`` -- base type
    words joined by spaces, one ``*`` per pointer level, qualifiers
    dropped.
    """

    def __init__(
        self, name: str, line: int, ret: str, params: Tuple[str, ...]
    ) -> None:
        self.name = name
        self.line = line
        self.ret = ret
        self.params = params

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CDecl({self.name}({', '.join(self.params)}) -> {self.ret})"


def _parse_c_type(text: str) -> Optional[str]:
    """Normalise one C declarator to a descriptor, or None if opaque."""
    stars = text.count("*")
    words = [w for w in text.replace("*", " ").split() if w]
    words = [w for w in words if w not in _C_QUALIFIERS]
    if words and words[-1] not in _C_TYPE_WORDS:
        words = words[:-1]  # trailing parameter name
    if not words or any(w not in _C_TYPE_WORDS for w in words):
        return None
    return " ".join(words) + "*" * stars


def parse_c_exports(source: str) -> List[CDecl]:
    """Exported (non-static) top-level functions declared in ``source``."""
    text = _blank_comments(source)
    decls: Dict[str, CDecl] = {}
    for match in _C_FUNC_RE.finditer(text):
        head = match.group("head").replace("*", " * ").split()
        stars = head.count("*")
        head_words = [w for w in head if w != "*"]
        if any(w in _C_SKIP_HEAD for w in head_words):
            continue
        ret = _parse_c_type(" ".join(head_words) + "*" * stars)
        if ret is None:
            continue
        raw_params = match.group("params").strip()
        params: List[str] = []
        if raw_params and raw_params != "void":
            ok = True
            for piece in raw_params.split(","):
                descriptor = _parse_c_type(piece)
                if descriptor is None:
                    ok = False
                    break
                params.append(descriptor)
            if not ok:
                continue
        name = match.group("name")
        line = text.count("\n", 0, match.start()) + 1
        decls.setdefault(
            name, CDecl(name, line, ret, tuple(params))
        )
    return list(decls.values())


#: ctypes scalar name -> C descriptor.
_CTYPES_TO_C = {
    "c_bool": "_Bool",
    "c_char": "char",
    "c_char_p": "char*",
    "c_double": "double",
    "c_float": "float",
    "c_int": "int",
    "c_long": "long",
    "c_longlong": "long long",
    "c_short": "short",
    "c_size_t": "size_t",
    "c_ubyte": "unsigned char",
    "c_uint": "unsigned int",
    "c_ulong": "unsigned long",
    "c_ulonglong": "unsigned long long",
    "c_ushort": "unsigned short",
    "c_void_p": "void*",
}


class CtypesDecl:
    """One ``lib.<symbol>`` declaration found in a Python module."""

    def __init__(self, symbol: str) -> None:
        self.symbol = symbol
        self.restype: Optional[str] = None  #: descriptor, "void" for None
        self.restype_line: Optional[int] = None
        self.argtypes: Optional[List[Optional[str]]] = None
        self.argtypes_line: Optional[int] = None

    @property
    def line(self) -> int:
        return self.argtypes_line or self.restype_line or 1


def _resolve_ctype(
    module: ModuleInfo, expr: ast.expr, env: Dict[str, ast.expr], depth: int = 0
) -> Optional[str]:
    """Descriptor for a ctypes type expression, or None if opaque."""
    if depth > 4:
        return None
    if isinstance(expr, ast.Constant) and expr.value is None:
        return "void"
    if isinstance(expr, ast.Name):
        bound = env.get(expr.id)
        if bound is not None:
            return _resolve_ctype(module, bound, env, depth + 1)
        dotted = module.resolve(expr)
        if dotted is not None:
            leaf = dotted.rpartition(".")[2]
            return _CTYPES_TO_C.get(leaf)
        return None
    if isinstance(expr, ast.Attribute):
        dotted = module.resolve(expr)
        if dotted is None:
            return None
        return _CTYPES_TO_C.get(dotted.rpartition(".")[2])
    if isinstance(expr, ast.Call):
        target = module.resolve(expr.func)
        if (
            target is not None
            and target.rpartition(".")[2] == "POINTER"
            and len(expr.args) == 1
        ):
            inner = _resolve_ctype(module, expr.args[0], env, depth + 1)
            if inner is None:
                return None
            return inner + "*"
        return None
    return None


def parse_ctypes_decls(module: ModuleInfo) -> Dict[str, CtypesDecl]:
    """All ``<obj>.<symbol>.argtypes/restype`` assignments in a module."""
    env: Dict[str, ast.expr] = {}
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                env[target.id] = stmt.value

    decls: Dict[str, CtypesDecl] = {}
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not (
            isinstance(target, ast.Attribute)
            and target.attr in ("argtypes", "restype")
            and isinstance(target.value, ast.Attribute)
        ):
            continue
        symbol = target.value.attr
        decl = decls.setdefault(symbol, CtypesDecl(symbol))
        if target.attr == "restype":
            decl.restype = _resolve_ctype(module, node.value, env) or None
            if isinstance(node.value, ast.Constant) and node.value.value is None:
                decl.restype = "void"
            decl.restype_line = node.lineno
        else:
            decl.argtypes_line = node.lineno
            if isinstance(node.value, (ast.List, ast.Tuple)):
                decl.argtypes = [
                    _resolve_ctype(module, elt, env) for elt in node.value.elts
                ]
            else:
                decl.argtypes = None
    return decls


_BAD_KERN_C = """\
int demo_add(const double *xs, long n, double *out)
{
    (void)xs; (void)n; (void)out;
    return 0;
}

void demo_scale(double *xs, long n, double factor)
{
    (void)xs; (void)n; (void)factor;
}

int demo_orphan(int x)
{
    return x;
}

static int demo_helper(int x)
{
    return x + 1;
}
"""

_BAD_NATIVE_PY = """\
import ctypes

_DOUBLE_P = ctypes.POINTER(ctypes.c_double)


def declare(lib):
    lib.demo_add.restype = ctypes.c_int
    lib.demo_add.argtypes = [_DOUBLE_P, ctypes.c_int, _DOUBLE_P]
    lib.demo_scale.restype = None
    lib.demo_scale.argtypes = [_DOUBLE_P, ctypes.c_long]
    lib.demo_ghost.restype = ctypes.c_int
    lib.demo_ghost.argtypes = [ctypes.c_int]
"""

_GOOD_KERN_C = """\
int demo_add(const double *xs, long n, double *out)
{
    (void)xs; (void)n; (void)out;
    return 0;
}

static int demo_helper(int x)
{
    return x + 1;
}
"""

_GOOD_NATIVE_PY = """\
import ctypes

_DOUBLE_P = ctypes.POINTER(ctypes.c_double)


def declare(lib):
    lib.demo_add.restype = ctypes.c_int
    lib.demo_add.argtypes = [_DOUBLE_P, ctypes.c_long, _DOUBLE_P]
"""


@register
class FfiPrototypeRule(ProjectRule):
    rule_id = "R110"
    name = "ffi-prototype"
    description = (
        "every symbol exported by a C source must have a ctypes "
        "declaration in a sibling module whose restype/argtypes match "
        "the C signature exactly (symbol set, arity, pointer-ness, and "
        "int/float width), and every ctypes declaration must bind an "
        "exported symbol."
    )
    rationale = (
        "A ctypes prototype that drifts from the C signature does not "
        "fail -- it silently truncates arguments or corrupts memory, "
        "producing wrong numbers with a green test suite.  The "
        "compile-on-demand design has no header to keep the two sides "
        "honest, so the linter is the type checker for this boundary: "
        "both inventories are parsed and compared field by field, and "
        "coverage runs both directions so adding a kernel without "
        "declaring it (or declaring a ghost) is itself a finding."
    )
    bad = _BAD_NATIVE_PY
    good = _GOOD_NATIVE_PY
    bad_tree = {
        "pkg/kern.c": _BAD_KERN_C,
        "pkg/native.py": _BAD_NATIVE_PY,
    }
    good_tree = {
        "pkg/kern.c": _GOOD_KERN_C,
        "pkg/native.py": _GOOD_NATIVE_PY,
    }

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        c_by_dir: Dict[str, List[Tuple[str, List[CDecl]]]] = {}
        for c_path, c_source in sorted(project.c_files.items()):
            directory = c_path.rpartition("/")[0]
            c_by_dir.setdefault(directory, []).append(
                (c_path, parse_c_exports(c_source))
            )

        for module in project.modules.values():
            decls = parse_ctypes_decls(module)
            if not decls:
                continue
            directory = module.path.rpartition("/")[0]
            companions = c_by_dir.get(directory)
            if not companions:
                continue
            exports: Dict[str, Tuple[str, CDecl]] = {}
            for c_path, c_decls in companions:
                for decl in c_decls:
                    exports.setdefault(decl.name, (c_path, decl))

            for symbol in sorted(decls):
                if symbol not in exports:
                    py_decl = decls[symbol]
                    anchor = ast.Module(body=[], type_ignores=[])
                    anchor.lineno = py_decl.line  # type: ignore[attr-defined]
                    anchor.col_offset = 0  # type: ignore[attr-defined]
                    yield self.project_finding(
                        module.path,
                        anchor,
                        f"ctypes declaration for `{symbol}` has no "
                        "exported C function in "
                        f"{', '.join(p for p, _ in companions)}",
                    )
            for symbol in sorted(exports):
                c_path, c_decl = exports[symbol]
                anchor = ast.Module(body=[], type_ignores=[])
                anchor.lineno = c_decl.line  # type: ignore[attr-defined]
                anchor.col_offset = 0  # type: ignore[attr-defined]
                if symbol not in decls:
                    yield self.project_finding(
                        c_path,
                        anchor,
                        f"exported C function `{symbol}` has no ctypes "
                        f"argtypes/restype declaration in {module.path}",
                    )
                    continue
                yield from self._compare(
                    module, decls[symbol], c_path, c_decl
                )

    def _compare(
        self,
        module: ModuleInfo,
        py_decl: CtypesDecl,
        c_path: str,
        c_decl: CDecl,
    ) -> Iterator[Finding]:
        def anchored(line: int, message: str) -> Finding:
            anchor = ast.Module(body=[], type_ignores=[])
            anchor.lineno = line  # type: ignore[attr-defined]
            anchor.col_offset = 0  # type: ignore[attr-defined]
            return self.project_finding(module.path, anchor, message)

        symbol = py_decl.symbol
        if py_decl.restype is not None and py_decl.restype != c_decl.ret:
            yield anchored(
                py_decl.restype_line or py_decl.line,
                f"restype of `{symbol}` is `{py_decl.restype}` but "
                f"{c_path}:{c_decl.line} returns `{c_decl.ret}`",
            )
        if py_decl.argtypes is None:
            yield anchored(
                py_decl.line,
                f"`{symbol}` has a restype but no argtypes list; the "
                "call would default to int-promotion of every argument",
            )
            return
        if len(py_decl.argtypes) != len(c_decl.params):
            yield anchored(
                py_decl.argtypes_line or py_decl.line,
                f"`{symbol}` declares {len(py_decl.argtypes)} argtypes "
                f"but {c_path}:{c_decl.line} takes "
                f"{len(c_decl.params)} parameters",
            )
            return
        for index, (py_type, c_type) in enumerate(
            zip(py_decl.argtypes, c_decl.params)
        ):
            if py_type is None:
                continue  # unresolvable expression: conservative skip
            if py_type != c_type:
                yield anchored(
                    py_decl.argtypes_line or py_decl.line,
                    f"argument {index} of `{symbol}` is declared "
                    f"`{py_type}` but {c_path}:{c_decl.line} takes "
                    f"`{c_type}` (pointer-ness and width must match "
                    "exactly)",
                )
