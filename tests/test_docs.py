"""The README's references into the package resolve."""

import importlib
import os
import re

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
DOTTED = re.compile(r"`(dtmv\.\w+)\.(\w+)`")


def test_every_dotted_path_in_the_readme_resolves():
    """Each backticked `dtmv.<module>.<name>` names an attribute of that
    module, so a rename or a deletion cannot leave the README behind."""
    with open(README) as fh:
        paths = DOTTED.findall(fh.read())
    assert paths
    missing = [f"{m}.{n}" for m, n in paths if not hasattr(importlib.import_module(m), n)]
    assert missing == []


def test_the_readme_names_exactly_the_committed_bench_records():
    """Every `BENCH_*.json` the README names is a file at the repository
    root, and every such file is named in the README, so the benchmark
    paragraph cannot drift away from the committed records."""
    with open(README) as fh:
        named = set(re.findall(r"\bBENCH_\w+\.json\b", fh.read()))
    committed = {f for f in os.listdir(os.path.dirname(README)) if re.fullmatch(r"BENCH_\w+\.json", f)}
    assert committed
    assert sorted(named - committed) == []
    assert sorted(committed - named) == []
