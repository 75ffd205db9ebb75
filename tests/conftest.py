import importlib.util
import pathlib
import shlex
import shutil
import subprocess
import sysconfig

import hypothesis
import pytest

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
