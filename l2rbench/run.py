"""L2R benchmark: fit time and route latency on two workloads.

    python3 l2rbench/run.py --workload d2-demand --seed 1 --seconds 10 --trace 0
    python3 l2rbench/run.py --self-test

Run from the repository root. The first run compiles the program (see
build.py); every run then starts one JVM with a local Spark and prints a
metric table followed by one JSON line with the result. --trace 1 selects
the traced run, which reports per-layer metrics and writes its spans to
.bench_build/l2rbench/trace/.
"""
import argparse
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("d2-demand", "d1-uniform")
RUN_TIMEOUT_S = 170
JVM_OPTS = [
    # A fixed, pre-touched heap on huge pages: without them the same queries
    # ran up to twice as slow in some JVMs as in others.
    "-Xms3g", "-Xmx3g", "-Xmn1g", "-XX:+UseTransparentHugePages", "-XX:+AlwaysPreTouch",
    "-Xss16m", "-XX:-UsePerfData", "-XX:+UseParallelGC",
    "-Dspark.driver.host=127.0.0.1",
    "-Dlog4j2.configurationFile=" + os.path.join(build.BENCH_DIR, "log4j2.properties"),
] + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
    "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")
    try:
        classes = build.build(with_tests=a.self_test)
        java, jars = build.java_bin(), build.spark_jars()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        print("l2rbench: " + str(e), file=sys.stderr)
        return 2
    work = os.path.abspath(build.BUILD_ROOT)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [java] + JVM_OPTS + ["-Djava.io.tmpdir=" + tmp, "-cp", classes + os.pathsep + os.path.join(jars, "*")]
    if a.self_test:
        cmd += ["l2rbench.SelfTest"]
    else:
        cmd += ["l2rbench.Main", "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace), "--work-dir", work]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("l2rbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        proc.kill()
        proc.wait()
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
