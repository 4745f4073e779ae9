"""Code outside the package that calls into it: the benchmark script and
README's library example. A renamed or deleted name breaks them here."""

import importlib.util
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_imports(monkeypatch):
    # run.py finds tracing.py next to itself, as when started as a script
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_readme_library_example(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    subopt = namespace["trace"].records[-1].subopt
    assert math.isfinite(subopt)
    assert capsys.readouterr().out == f"{subopt}\n"
