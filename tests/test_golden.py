"""Byte-for-byte output of the analysis subcommands on the fixtures.

Each case runs one subcommand and compares SHA-256 digests of its stdout and
of every data file it writes (sidecars carry timestamps and are skipped) with
digests recorded before the ingest and emission paths were made column-wise.
A case that fails also records its exit code and the digest of its stderr.
A digest changes when any output byte changes, so a deliberate change to an
output format must re-record the affected digests here.

Run as a script (``PYTHONPATH=src python3 tests/test_golden.py``), the module
prints every case's digests at the current commit in the ``CASES`` layout. To
record a new case at the commit before a change, add the case and run the
module in a checkout of that commit.
"""

import contextlib
import hashlib
import io
import json

import pytest

from perfchar.cli import main

CASES = {
    "energy": (
        ["analyze", "energy", "--in", "{fx}/energy_node_runs.csv", "--out", "{out}/energy.csv"],
        {
            "stdout":
                "5db8c9568f03fee69cc49d7f743ee0db6ebf5b2faa9dcdb2447ff533621ab04b",
            "energy.csv":
                "ff44b7fd4f0b5deeec9995ef98ab7cbbfdd137e5bbde00fe19113d13c8634212",
        },
    ),
    "energy-no-energy": (
        ["analyze", "energy", "--in", "{fx}/gustafson_runs.csv", "--out", "{out}/energy.csv"],
        {
            "stdout":
                "f6ab26a76e87151b6cfa36ec99c9e226b9bda64358016c0d86ed2809481453f8",
            "energy.csv":
                "799c512a5733ba01deb8fa439bd95a438c623c3f20eb989e208000cb15f02be8",
        },
    ),
    "compare-time": (
        ["report", "compare", "--in", "{fx}/energy_node_runs.csv", "--out", "{out}/compare.csv"],
        {
            "stdout":
                "ac1a33d7dd3bc71f59c93ee93f10a71ece9ef83ba60e8efc6bfe61a976899b7f",
            "compare.csv":
                "4c6c0bd3ee20ed14d1ef59a0aa6c55214e6d0a0fc18c3e8da119afd8b5229cf8",
        },
    ),
    "compare-rate": (
        ["report", "compare", "--metric", "rate", "--in", "{fx}/energy_node_runs.csv",
         "--out", "{out}/compare.csv"],
        {
            "stdout":
                "028705cc1fb89d626e61fb5951b4963c85f17c8b062e45576f20bc4c3073f64a",
            "compare.csv":
                "c29bf8e0da80455a56f893ef12435444c37737cdcb7c325679c5a934345fae92",
        },
    ),
    "scaling-amdahl": (
        ["analyze", "scaling", "--model", "amdahl", "--in", "{fx}/amdahl_runs.csv",
         "--out-dir", "{out}", "--gnuplot"],
        {
            "stdout":
                "efead2123e52d8df001354283cb2ece9a19195d378dde1caeb88cb5fd501eb70",
            "scaling.gp":
                "cea00822fa9dce2655fff2ef329c490e38b88f97ee6172d9a52d604385301f2a",
            "scaling_fits.csv":
                "86adc9f5df48fc5814bb459c5e6d7053aea175ea45570ab5752b06db776476dc",
            "scaling_projection.csv":
                "5d34755be7a41ba36e5e9cd96d6ce2753d5c294f9bf1ca77443a240fd25082f1",
        },
    ),
    # 40 groups of 3-8 points. This case and the one above were re-recorded when
    # the strong-scaling fit became a grid-and-bisection search over a, and their
    # stdout again when a value that rounds to zero stopped printing as -0.0000.
    "scaling-amdahl-groups": (
        ["analyze", "scaling", "--model", "amdahl", "--in", "{fx}/amdahl_groups_runs.csv",
         "--out-dir", "{out}"],
        {
            "stdout":
                "1304f74f4ed168936934e105677609ba8599267930ca27e3b648cfb533e9c9e3",
            "scaling_fits.csv":
                "f57717cd8ff394d37bbe9ed80e874260ced34166682a6c5f602a9e52f90ac884",
            "scaling_projection.csv":
                "bdf21241f517c3f271750855d20ffd4a0deba31a506d2c35e32f8a572773fc26",
        },
    ),
    "scaling-gustafson": (
        ["analyze", "scaling", "--model", "gustafson", "--in", "{fx}/gustafson_runs.csv",
         "--out-dir", "{out}"],
        {
            "stdout":
                "39f1df9c7b3cc2c4724fc5afba971e6e88a357ccf1eab4308b603e9621061636",
            "scaling_fits.csv":
                "eaa16f1b26e082ba6846e36f1fbedf9257c3597de4683dc8443bfea404afb276",
            "scaling_projection.csv":
                "2277c36e6219afe9e488a960fdbca145e19ae4ecd7ae67e6474e76122cccc0d4",
        },
    ),
    "scaling-mpi-shares": (
        ["analyze", "scaling", "--model", "mpi-shares", "--in", "{fx}/mpi_shares.csv",
         "--out-dir", "{out}"],
        {
            "stdout":
                "b26ec436f435342e2c063d0a5ff7b52cebcf1960105d7ca2ba4fa9e24d6cfa43",
            "mpi_share_curves.csv":
                "b3fefadd87a44cfba266d64ed1abe188c87d80aa2fef321045abfbc765be1403",
            "mpi_share_fits.csv":
                "551c14cc42c5288700ac118419d4b0be5b5aad2dedb64f4f350196cc30c415d8",
        },
    ),
    # 30 share groups of 3-9 points, some with a repeated p; the 20th group in
    # sorted order is underdetermined, so the first 19 are printed and the run
    # ends in one error line. Grouped by (app, compiler), the same rows form 15
    # groups that all fit. Recorded with the one-group-at-a-time share fit.
    "scaling-mpi-shares-groups": (
        ["analyze", "scaling", "--model", "mpi-shares", "--in", "{fx}/mpi_shares_groups.csv",
         "--out-dir", "{out}"],
        {
            "exit": 1,
            "stderr":
                "75621a5c6f190be7bed8d8f0348fa3d6d75f0711a7a071ec19fd611dcfeb1e28",
            "stdout":
                "f1f4dfeb63d3bb59be572fc2e84eb69412dcc4770ea17f616a75b054241e2f90",
        },
    ),
    "scaling-mpi-shares-merged": (
        ["analyze", "scaling", "--model", "mpi-shares", "--in", "{fx}/mpi_shares_groups.csv",
         "--group", "app,compiler", "--out-dir", "{out}"],
        {
            "stdout":
                "820818cc6ceae8d01a342e9ff54d33aad25fb02ce31303e7db2848f6e0b8c99d",
            "mpi_share_curves.csv":
                "253e9a76d9709089b823c6e0549b6fea42b44a00f0cd554e461a287f815c7d56",
            "mpi_share_fits.csv":
                "a10db8288dda8755d76e6cb85734bb9f56a9406bc351b260d8a1d7732679f014",
        },
    ),
    "network": (
        ["analyze", "network", "--in", "{fx}/pairwise_8node.csv", "--out-dir", "{out}"],
        {
            "stdout":
                "2c4ba78cbd8c6f1585f880b5b9bd2088fb8f0fd0a4c42f8ebaa85878738321f3",
            "node_medians.csv":
                "0e0d9674d1915fe436851ae87ce272a7728d7ec1d6351f438e3d22194fc55f11",
            "weak_links.csv":
                "bcc75ca989a01aede5ee40a17c76c92af01917710d50dd1cb57aa1156be1e592",
        },
    ),
    "roofline-alya": (
        ["analyze", "roofline", "--spec", "{fx}/platforms/dibona-tx2.json",
         "--points", "{fx}/alya_phase_points.csv", "--out-dir", "{out}", "--gnuplot"],
        {
            "stdout":
                "13e80746784d9dab9b6d9860c6f2d8fca99cedce61fc9cbee5ed6eebc12d8414",
            "roofline.gp":
                "5fd6c6ad5db5ac0326a40824f5110eae8effa923e7c03a357c2582a1191250cd",
            "roofline_curve.csv":
                "0c879bdc3aa5d15a1da5c70b5142a42b728a05a15a610a5c1da9210ea181eb85",
            "roofline_points.csv":
                "fc6a94ce22acd8a5f521960ceb498f6b8d626a41f2130b148520e90df4daa60c",
        },
    ),
    # Counter totals: access_bytes 4, 8, 16 and blank (8), a point above the
    # roof, a measurement of 0 (no headroom) and a kernel with no flops.
    "roofline-counters": (
        ["analyze", "roofline", "--spec", "{fx}/platforms/marenostrum4.json", "--scope", "core",
         "--points", "{fx}/kernel_counters.csv", "--out-dir", "{out}"],
        {
            "stdout":
                "04a9e482562dfe879f6a18a867638ac8ad665b4e4f39f6df666c46f3d8b2999d",
            "roofline_curve.csv":
                "8c65c3b4757202ca1066e1a46c5f4c6ab49a1557fd09eba1d4026e3defd17bac",
            "roofline_points.csv":
                "8a5a22845bd3d571ce1fe01831e021c29d095b64ace9f0abce3011e4b4c86124",
        },
    ),
    # Counter totals only, as the benchmark's roofline inputs are: the optional
    # gflops and time_share_pct columns are absent, so two written columns are
    # all blank. Recorded before the writer decided quoting and blanks per column.
    "roofline-counters-only": (
        ["analyze", "roofline", "--flops-gflops", "1500.0", "--bandwidth-gbs", "200.0",
         "--points", "{fx}/kernel_counters_only.csv", "--out-dir", "{out}"],
        {
            "stdout":
                "a7ebd37fb4e1679cd2b0243c75c43d84b9e5c67803d12b65f85dfc5fb404bce3",
            "roofline_curve.csv":
                "70ef84ac92e2a9d58f16ecbc8c0f279e3b5d6bf0b6e9c0d3277649c926df2864",
            "roofline_points.csv":
                "5fbc2a1cdd1fc544102c6762a177988af9bd86110c1a9186c6aef1cd39bbed42",
        },
    ),
}


def digests(argv, fixtures_dir, out) -> dict:
    argv = [a.format(fx=fixtures_dir, out=out) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    result = {"stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
    if code or stderr.getvalue():
        result.update(exit=code, stderr=hashlib.sha256(stderr.getvalue().encode()).hexdigest())
    for path in sorted(out.iterdir()):
        if not path.name.endswith(".meta.json"):
            result[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return result


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_recorded_digests(name, fixtures_dir, tmp_path):
    argv, expected = CASES[name]
    assert digests(argv, fixtures_dir, tmp_path) == expected


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    from conftest import FIXTURES

    for name, (argv, _) in CASES.items():
        with tempfile.TemporaryDirectory() as out:
            result = digests(argv, FIXTURES, Path(out))
        print(f"    {json.dumps(name)}: (\n        {json.dumps(argv)},\n        {{")
        for key, value in result.items():
            if key == "exit":
                print(f'            "exit": {value},')
            else:
                print(f"            {json.dumps(key)}:\n                {json.dumps(value)},")
        print("        },\n    ),")
