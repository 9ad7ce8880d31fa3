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
