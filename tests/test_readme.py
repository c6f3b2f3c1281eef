"""The README's Python examples run as written, and the signatures it quotes
are the functions' own."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import oddsafe

README = Path(__file__).resolve().parents[1] / "README.md"

#: a call quoted as inline code, such as `write_rows(model, rows)`
SIGNATURE = re.compile(r"`(\w+)\(([^`]*)\)`")


def test_every_python_block_of_the_readme_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
    assert capsys.readouterr().out


def _functions() -> dict[str, list]:
    """Each name an oddsafe module defines a function by, and those functions."""
    found: dict[str, list] = {}
    for info in pkgutil.iter_modules(oddsafe.__path__):
        module = importlib.import_module(f"oddsafe.{info.name}")
        for name, function in inspect.getmembers(module, inspect.isfunction):
            if function.__module__ == module.__name__:
                found.setdefault(name, []).append(function)
    return found


def _parameters(function) -> str:
    """The parameter list of `function` as Python writes it, without annotations."""
    signature = inspect.signature(function)
    plain = [p.replace(annotation=p.empty) for p in signature.parameters.values()]
    return str(signature.replace(parameters=plain, return_annotation=signature.empty))


def test_every_signature_the_readme_quotes_is_the_functions_own():
    quoted = SIGNATURE.findall(README.read_text())
    assert len(quoted) >= 5
    functions = _functions()
    for name, parameters in quoted:
        assert len(functions.get(name, ())) == 1, f"README quotes {name}, no one oddsafe function"
        assert f"{name}({parameters})" == name + _parameters(functions[name][0])
