import importlib.util
import pathlib
import random
import shlex
import shutil
import subprocess
import sysconfig

import hypothesis
import pytest

from sepprof.graphs import Graph

hypothesis.settings.register_profile(
    "ci", derandomize=True, max_examples=40, deadline=None)
hypothesis.settings.load_profile("ci")

KERNELS_C = (pathlib.Path(__file__).resolve().parents[1]
             / "src" / "sepprof" / "_kernels.c")


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory):
    """The C kernels compiled from source into a temp dir with the
    interpreter's C compiler, or None when there is no compiler. A compiler
    that is present but fails is an error, not a skip."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        return None
    out = tmp_path_factory.mktemp("kernels") / (
        "_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(
        [*cc, "-O2", "-shared", "-fPIC",
         "-I" + sysconfig.get_paths()["include"], str(KERNELS_C),
         "-o", str(out)],
        check=True)
    spec = importlib.util.spec_from_file_location("sepprof._kernels", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def seeded_graphs():
    """Sixty seeded random graphs on 2-12 vertices. The even-numbered ones
    are connected (a random spanning tree plus extra edges); the odd-numbered
    ones take each vertex pair with probability 0.2 and are mostly
    disconnected."""
    rng = random.Random(19)
    graphs = []
    for i in range(60):
        n = rng.randint(2, 12)
        pairs = [(u, v) for v in range(n) for u in range(v)]
        if i % 2 == 0:
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            edges += [e for e in pairs if rng.random() < 0.15]
        else:
            edges = [e for e in pairs if rng.random() < 0.2]
        graphs.append(Graph(n, edges))
    return graphs
