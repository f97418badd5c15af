"""Build file of the L2R benchmark.

Compiles the repository's main Scala sources together with the benchmark's
own sources into a content-addressed class directory under .bench_build/,
using the Scala compiler that ships in the Spark distribution. Nothing is
resolved from the network and nothing is written outside the checkout.

    python3 l2rbench/build.py          # prints the class directory
"""
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(".bench_build", "l2rbench")
MAIN_SOURCES = os.path.join("src", "main", "scala")
# The DuckDB test oracle needs a jar outside the Spark distribution, and the
# benchmark never calls it.
EXCLUDED = {os.path.join(MAIN_SOURCES, "repro", "Oracle.scala")}


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        raise BuildError("no Spark distribution: set SPARK_HOME or put spark-submit on PATH")
    return jars


def java_bin():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("no java: set JAVA_HOME or put java on PATH")
    return exe


def scala_files(root):
    out = []
    for d, _, files in os.walk(root):
        out += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(p for p in out if os.path.relpath(p) not in EXCLUDED)


def sources(with_tests=False):
    if not os.path.isdir(os.path.join(MAIN_SOURCES, "repro")):
        raise BuildError("run from the repository root: %s/repro is missing" % MAIN_SOURCES)
    srcs = scala_files(MAIN_SOURCES) + scala_files(os.path.join(BENCH_DIR, "src"))
    if with_tests:
        srcs += scala_files(os.path.join(BENCH_DIR, "test"))
    return srcs


def build(with_tests=False):
    """Compile if the sources changed; return the class directory."""
    srcs = sources(with_tests)
    h = hashlib.sha256()
    for p in srcs:
        h.update(os.path.relpath(p).encode())
        with open(p, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    out = os.path.join(BUILD_ROOT, ("test-" if with_tests else "classes-") + h.hexdigest()[:16])
    if os.path.isdir(out):
        return out
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cp = os.path.join(spark_jars(), "*")
    cmd = [java_bin(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", cp,
           "scala.tools.nsc.Main", "-nowarn", "-deprecation:false",
           "-d", tmp, "-cp", cp] + srcs
    print("l2rbench: compiling %d sources" % len(srcs), file=sys.stderr)
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=800)
    if res.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError("scalac failed with code %d" % res.returncode)
    os.rename(tmp, out)
    return out


if __name__ == "__main__":
    try:
        print(build("--with-tests" in sys.argv))
    except BuildError as e:
        print("l2rbench: " + str(e), file=sys.stderr)
        sys.exit(2)
