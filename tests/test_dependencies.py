import ast
import os
import subprocess
import sys
from pathlib import Path

import stpafl

# numpy is the only declared runtime dependency (pyproject.toml). Packages
# that happen to be installed, such as scipy, would import fine in a dev
# environment and break a clean install.
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(Path(stpafl.__file__).parent.glob("*.py"))
    assert sources
    stray = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in ALLOWED]
    assert stray == []


def test_cli_import_loads_no_executor_or_logging():
    # A run's setup time counts every import. concurrent.futures brings
    # logging with it, about 9 ms; the training helper thread needs only
    # threading, which numpy imports anyway.
    src = str(Path(stpafl.__file__).parent.parent)
    code = "import sys, stpafl.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random loads when the first generator is made, in a run's setup.
    # An evaluated annotation that names np.random would load it at import:
    # about 9 ms that a config error, which exits before any generator, would
    # then pay too.
    src = str(Path(stpafl.__file__).parent.parent)
    code = "import sys, stpafl.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
