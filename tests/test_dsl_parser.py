import hashlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from femscript.dsl import LexError, ParseError, Parser, parse, run_source, tokenize
from femscript.dsl import astnodes as A
from femscript.dsl.parser import expand_macro
from femscript.errors import FemError

from conftest import time_bound

CORPUS = sorted(Path(__file__).parent.glob("corpus/*.edp"))

SOLVE_LISTING = """
mesh Th=square(10,10);
fespace Vh(Th,P1);
Vh uh,vh,f;
macro Grad(u)[dx(u),dy(u)]//
int i=0;
solve poisson(uh,vh,init=i,solver=LU) =
    int2d(Th)( Grad(uh)'*Grad(vh) )
    -int2d(Th)(f*vh)
    +on(1,2,3,4,uh=0);
"""


def _collect_terms(expr):
    """Flatten the +- tree of a form body into (sign, call) leaves."""
    out = []

    def walk(node, sign):
        if isinstance(node, A.Binary) and node.op in "+-":
            walk(node.left, sign)
            walk(node.right, sign if node.op == "+" else -sign)
        else:
            out.append((sign, node))
    walk(expr, +1)
    return out


def test_solve_listing_shape():
    prog = parse(SOLVE_LISTING)
    solves = [s for s in prog.body if isinstance(s, A.ProblemDef)]
    assert len(solves) == 1
    p = solves[0]
    assert p.kind == "solve" and p.unknown == "uh" and p.test == "vh"
    assert [a.name for a in p.named] == ["init", "solver"]
    terms = _collect_terms(p.body)
    assert len(terms) == 3
    # two integral terms (one positive bilinear, one negated linear), one on-clause
    def callee_name(call):
        node = call
        while isinstance(node, A.Call):
            node = node.callee
        return node.name
    names = [callee_name(c) for _, c in terms]
    assert names == ["int2d", "int2d", "on"]
    assert [s for s, _ in terms] == [1, -1, 1]


def test_macro_definition_capture():
    p = Parser("macro Grad(u)[dx(u),dy(u)]// comment\n")
    prog = p.parse_program()
    m = prog.body[0]
    assert isinstance(m, A.MacroDef)
    assert m.name == "Grad" and m.params == ("u",)
    assert "".join(t.text for t in m.body) == "[dx(u),dy(u)]"


def test_macro_expansion_textual():
    p = Parser("macro Grad(u)[dx(u),dy(u)]//\n")
    p.parse_program()
    macro = p.macros["Grad"]
    args = [tokenize("w")[:-1]]
    out = expand_macro(macro, args)
    assert [t.text for t in out] == [t.text for t in tokenize("[dx(w),dy(w)]")[:-1]]


def test_macro_expansion_equals_tokenized_substitution():
    """Expansion is purely textual: token-level substitution agrees with
    tokenizing the substituted source text."""
    p = Parser("macro F(t,u,v)[t*dx(u),t*dy(v)]//\n")
    p.parse_program()
    macro = p.macros["F"]
    args_src = ["2.5", "aa", "bb+1"]
    args = [tokenize(s)[:-1] for s in args_src]
    expanded = expand_macro(macro, args)
    direct = tokenize("[2.5*dx(aa),2.5*dy(bb+1)]")[:-1]
    assert [(t.kind, t.text) for t in expanded] == [(t.kind, t.text) for t in direct]


def test_macro_postfix_indexing_parses():
    src = "macro F(t,u,v)[t*dx(u),t*dy(v)]//\nreal z=1;\nint q=0;\n"
    prog = parse(src + "")
    assert isinstance(prog.body[0], A.MacroDef)


def test_zero_parameter_macro():
    src = "macro Pi2 (2*pi)//\nreal z=Pi2;\n"
    prog = parse(src)
    decl = prog.body[1]
    # the body was substituted verbatim at the use site
    assert decl.decls[0].init == parse("real z=(2*pi);").body[0].decls[0].init


def test_macro_arity_mismatch():
    with pytest.raises(ParseError):
        parse("macro G(u)[dx(u)]//\nreal a=G(1,2);\n")


def test_for_requires_clauses():
    with pytest.raises(ParseError):
        parse("for(;;) { int a=1; }")
    with pytest.raises(ParseError):
        parse("for(int i=0;;i++) { }")


def test_missing_semicolon_reported():
    with pytest.raises(ParseError) as err:
        parse("int a=1\nint b=2;")
    assert "expected" in str(err.value)


def test_named_argument_parsing():
    prog = parse("int n=square(2,2,flags=1);")  # parse shape only
    call = prog.body[0].decls[0].init
    assert isinstance(call, A.Call)
    assert call.args[2].name == "flags"


def test_range_expression():
    prog = parse("real[int] U=1:2:10;")
    rng = prog.body[0].decls[0].init
    assert isinstance(rng, A.Range) and rng.step is not None


def test_power_binds_tighter_than_unary_minus():
    prog = parse("real a=-1^2;")
    expr = prog.body[0].decls[0].init
    assert isinstance(expr, A.Unary) and expr.op == "-"
    assert isinstance(expr.operand, A.Binary) and expr.operand.op == "^"


def test_matrix_inverse_exponent():
    prog = parse("int q=0; q = A^-1*b;")
    assign = prog.body[1].expr
    power = assign.value.left
    assert isinstance(power, A.Binary) and power.op == "^"
    assert isinstance(power.right, A.Unary) and power.right.op == "-"


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_parses(path):
    prog = parse(path.read_text())
    assert len(prog.body) > 0


GOLDEN_PARSE_TREES = {
    "arrays_matrices": "a6987cad630fb0c1dcbe384cafb2cb365c1b857dfc5b1dcdad9cbf9041da827c",
    "borders_buildmesh": "842201489a4a87c1816ce75be6d2908b61f3874a401d58081b161de5d35592cd",
    "fespace_bc": "69ed3cd9f18694a0f53e59988833868b18dc870bee1c2d5e921ae04ce7cc8c29",
    "functions_macros": "445ae97dd3e60728f5fb7e14323846772b50a3dd2501824379a18d10f1afaa60",
    "io_streams": "e546e6be2074fd1b8b456ee24109ce31ada84a4bfd8bb21e8952b2e46922fcb2",
    "loops": "b34037f6b983baa979e4dad08b868d6e0d6a2bf0ca85976e90cd094e4dc8d1b7",
    "problem_poisson": "46168af71dce78c5e1dc3cd903979daf4111d29d35ee4c349d09f2f015e10593",
    "solve_poisson": "8449006d6c66be7101c39622145742a2d3e05c76ca84f43e5a27aaa2c7b4b43b",
    "types_operators": "11c4a039906a3369f7eff2d3c8adb360588529f9e759ab98f15806d4b0064f12",
    "varf_poisson": "5966fc12ec0d98510b9b0b076bf65b8fda104f5c3db1dac9558e40047dc8a0e6",
}


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_golden_parse_tree(path):
    """The parse tree of each corpus script is pinned by the SHA-256 of its
    repr.  The repr leaves out positions (line numbers and token places), so
    this compares exactly what tree equality compares, precedence and
    associativity included.  A change to the parser must leave it unchanged.
    """
    digest = hashlib.sha256(repr(parse(path.read_text())).encode()).hexdigest()
    assert digest == GOLDEN_PARSE_TREES[path.stem]


def test_fe_declaration_needs_known_space():
    # `Vh uh;` with no fespace named Vh parses as an expression and fails later
    with pytest.raises(ParseError):
        parse("Vh uh;")


RECURSIVE_MACROS = {
    "direct": "macro A A//\nreal a=A;",
    "mutual": "macro A B//\nmacro B A//\nreal a=A;",
    "with-parameters": "macro A(u) A(u)//\nreal a=A(1);",
    "through-an-argument": "macro F(x) x(x)//\nreal a=F(F);",
}


@pytest.mark.parametrize("src", RECURSIVE_MACROS.values(), ids=RECURSIVE_MACROS.keys())
def test_a_recursive_macro_ends_in_a_located_error(src):
    with time_bound(5), pytest.raises(FemError) as err:
        run_source(src, stdout=io.StringIO(), verbosity=0)
    assert 1 <= err.value.line <= src.count("\n") + 1


def test_a_macro_does_not_expand_inside_its_own_expansion():
    with time_bound(5):
        assert parse("macro A B//\nmacro B A//\nreal a=A;").body[2] == parse("real a=A;").body[0]
        assert parse("macro F(x) x(x)//\nF(F);").body[1] == parse("F(F);").body[0]


def test_nested_uses_of_a_macro_expand():
    # arguments expand before substitution, so the inner F is not hidden
    src = "macro F(x) x//\nreal a=F(F(2));"
    assert parse(src).body[1] == parse("real a=2;").body[0]
    assert run_source(src, stdout=io.StringIO(), verbosity=0).env.lookup("a") == 2


MACRO_BORNE_ERRORS = {
    "direct": "macro A A//\nreal a=A;",
    "with-parameters": "macro G(u) u+zz//\n\nreal a=G(1);",
    "through-another-macro": "macro H() qq//\nmacro K H()//\nreal b=1;\nreal a=K;",
}


@pytest.mark.parametrize("src", MACRO_BORNE_ERRORS.values(), ids=MACRO_BORNE_ERRORS.keys())
def test_an_error_in_a_macro_body_names_the_line_of_the_use(src):
    with pytest.raises(FemError, match=r"^line \d+: undeclared identifier") as err:
        run_source(src, stdout=io.StringIO(), verbosity=0)
    assert err.value.line == src.count("\n") + 1


def test_macro_expansion_past_its_bound_ends_at_the_outermost_use():
    # each level doubles the tokens: 20 levels would expand to about 2^21 of them
    src = "macro F(x) x+x//\nreal b=1;\nreal a=" + "F(" * 20 + "1" + ")" * 20 + ";"
    with time_bound(5), pytest.raises(ParseError, match=r"^parse error at 3:8: macro "
                                                        r"expansion exceeds 250000 tokens$"):
        parse(src)


@pytest.mark.parametrize("src", ["real a=2²;", "real a=²;"])
def test_a_non_decimal_digit_is_a_located_error(src):
    with pytest.raises(LexError, match=r"^lex error at 1:\d+: unexpected character '²'$") as err:
        parse(src)
    assert err.value.line == 1


SCRIPT_PIECES = [
    *"0123456789", "²", ".", "e", "i", '"', "\\", "//", "/*", "*/", "\n", " ", ";", ",",
    "(", ")", "[", "]", "{", "}", "=", "+", "*", "'", "real a=", "x", "A", "B", "F", "G",
    "macro A B//\n", "macro B(x) A(x)+x//\n", "macro F(x) x(x)//\n", "macro G() F(A)//\n",
    "macro A(u,v) G()*B(u)//\n", "macro B A(x//\n", "A(", "B(", "F(", "G()",
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(SCRIPT_PIECES), max_size=30).map("".join))
def test_any_script_text_parses_or_raises_a_fem_error(src):
    with time_bound(5):
        try:
            parse(src)
        except FemError:
            pass


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.text(), st.booleans())
def test_tokenize_raises_only_lex_errors(src, keep_comments):
    try:
        tokenize(src, keep_comments=keep_comments)
    except LexError:
        pass
