"""The driver contract runs one program: no environment switch routes a
query down a second path, and the image fixtures the queries build
are regenerated on every call."""

import ast
import os

import pandas as pd

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The only environment read the engine keeps: the CLI's default worker
# count, a deployment setting.
ALLOWED = [("geotools_ray/cli.py", "RAY_GRAFT_CPUS")]


def _sources():
    yield "__ray_entry__.py"
    for root, _dirs, files in os.walk(os.path.join(REPO, "geotools_ray")):
        for f in sorted(files):
            if f.endswith(".py"):
                yield os.path.relpath(os.path.join(root, f), REPO)


def _env_reads(rel: str, root: str = REPO) -> list[tuple[str, str | None]]:
    """(file, variable) per use of os.environ / os.getenv in one file;
    the variable is None when it is not a literal first argument or
    subscript."""
    with open(os.path.join(root, rel)) as f:
        tree = ast.parse(f.read(), rel)
    os_names = {"os"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_names |= {a.asname or a.name for a in node.names if a.name == "os"}
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(rel, None) for a in node.names if a.name in ("environ", "getenv")]
    uses = [
        id(n)
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute)
        and n.attr in ("environ", "getenv")
        and isinstance(n.value, ast.Name)
        and n.value.id in os_names
    ]
    keys = {}
    for n in ast.walk(tree):
        target = arg = None
        if isinstance(n, ast.Call) and n.args:
            f = n.func
            if isinstance(f, ast.Attribute) and f.attr == "get":
                target = f.value  # os.environ.get("X")
            else:
                target = f  # os.getenv("X")
            arg = n.args[0]
        elif isinstance(n, ast.Subscript):
            target, arg = n.value, n.slice  # os.environ["X"]
        if id(target) in uses and isinstance(arg, ast.Constant):
            keys[id(target)] = arg.value
    return found + [(rel, keys.get(i)) for i in uses]


def test_engine_reads_no_environment_switch():
    reads = [r for rel in _sources() for r in _env_reads(rel)]
    assert reads == ALLOWED


def test_env_scan_sees_every_read_form(tmp_path):
    src = (
        "import os\nimport os as o\nfrom os import getenv\n"
        "a = os.environ.get('A')\nb = o.getenv('B')\nc = os.environ['C']\n"
        "d = dict(os.environ)\n"
    )
    (tmp_path / "m.py").write_text(src)
    assert sorted(_env_reads("m.py", str(tmp_path)), key=str) == sorted(
        [("m.py", None), ("m.py", "A"), ("m.py", "B"), ("m.py", "C"), ("m.py", None)],
        key=str,
    )


def test_image_query_fixture_regenerates_equal(ray_session, tmp_path):
    """Two calls in one process each rebuild the image table in Ray
    tasks and must join to the same pairs. The image queries read only
    the tier name from sf_dir (sf0.001 -> 1000 images)."""
    import __ray_entry__ as E

    q = E.queries()["img_join_pairs"]
    sf_dir = str(tmp_path / "sf0.001")
    cols = ["image_id", "polygon_id", "cell_id"]

    def run() -> pd.DataFrame:
        df = q(sf_dir).to_pandas()
        return df.sort_values(cols).reset_index(drop=True)

    first, second = run(), run()
    assert len(first) > 0
    pd.testing.assert_frame_equal(first, second)
