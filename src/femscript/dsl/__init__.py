from dataclasses import dataclass

from .interp import EvalError, Env, Interpreter
from .lexer import LexError, Token, tokenize
from .parser import ParseError, Parser, expand_macro, parse


@dataclass
class RunResult:
    exit_code: int
    env: Env
    interpreter: Interpreter


def run_source(source, script_dir=".", stdout=None, stdin=None,
               allow_exec=False, plot_files=True, verbosity=None) -> RunResult:
    """Parse and execute a script, returning the exit code and the final
    global environment (handy for inspecting results in tests)."""
    interp = Interpreter(script_dir=script_dir, stdout=stdout, stdin=stdin,
                         allow_exec=allow_exec, plot_files=plot_files,
                         verbosity=verbosity)
    code = interp.run(source)
    return RunResult(code, interp.env, interp)


__all__ = ["tokenize", "Token", "LexError", "parse", "Parser", "ParseError",
           "expand_macro", "Interpreter", "EvalError", "Env",
           "run_source", "RunResult"]
