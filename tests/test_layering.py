"""The package's modules import one another in one direction only."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "photonstats"

BELOW_CLI = {"acquisition", "channel", "distributions", "fitting", "ioutil", "nonclassical"}

# module -> the package modules it may import
ALLOWED = {
    "ioutil": set(),
    "distributions": {"ioutil"},
    "channel": {"distributions", "ioutil"},
    # the report format stays out of the math modules
    "nonclassical": {"distributions"},
    "fitting": {"distributions"},
    "acquisition": {"channel", "distributions", "ioutil"},
    "cli": BELOW_CLI,
    "__init__": BELOW_CLI,
}


def package_imports(path: Path) -> set[str]:
    """Names of the photonstats modules that ``path`` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith("photonstats"):
                parts = node.module.split(".")[1:]
            elif node.level == 1:
                parts = node.module.split(".") if node.module else []
            else:
                continue
            if parts:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "photonstats" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_imports_follow_the_layers():
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    assert set(modules) == set(ALLOWED), "place every module in ALLOWED"
    for name, path in modules.items():
        extra = package_imports(path) - ALLOWED[name]
        assert not extra, f"{name} imports {sorted(extra)} against the layering"


def scipy_imports(path: Path) -> list[int]:
    """Lines of ``path`` that import scipy, at module level or in a function."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return lines


def test_no_module_imports_scipy():
    # importing scipy costs 0.3-1.6 s per subpackage, and numpy does every job
    # the package has; scipy serves the tests as an independent oracle only
    for path in PACKAGE.glob("*.py"):
        lines = scipy_imports(path)
        assert not lines, f"{path.name} imports scipy on lines {lines}"
