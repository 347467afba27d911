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


def module_level_scipy_imports(path: Path) -> list[int]:
    """Lines of ``path`` that import scipy outside every function body."""
    lines = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            names = []
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text()))
    return lines


def test_scipy_is_imported_only_inside_functions():
    # importing scipy costs 0.3-1.6 s per subpackage; start-up must not pay it
    for path in PACKAGE.glob("*.py"):
        lines = module_level_scipy_imports(path)
        assert not lines, f"{path.name} imports scipy at module level on lines {lines}"
