# Builds the optional compiled kernel extension from one C file. The package
# works without it (sepprof.kernels falls back to the pure-Python
# implementation), so optional=True demotes a failed build to a warning.
from setuptools import Extension, setup

setup(ext_modules=[
    Extension("sepprof._kernels", ["src/sepprof/_kernels.c"], optional=True),
])
