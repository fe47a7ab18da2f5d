"""Configuration documents, run directories, reload fidelity and the CLI."""

import json
import os
import re
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fracch import cli
from fracch import config as cfgmod
from fracch import runio
from fracch import spectral as sp
from fracch import stepper as st
from fracch.errors import ConfigurationError

from conftest import fresh_longtime_report

MINIMAL = """\
[operator_a]
kind = neumann
modes = 12
length = 4.0
grid_points = 25
exponent = 0.5

[operator_b]
kind = neumann
modes = 12
length = 4.0
grid_points = 25
exponent = 0.5

[potential]
name = obstacle
c2 = 1.0

[scheme]
tau = 0.25
yosida_lambda = 1e-3
h = 0.01
steps = 120

[data]
y0 = cosine 0.1 0.4 0.2
source = decay 0.5
u_inf = constant 0
u_bump = cosine 0 0.05

[output]
directory = OUTDIR
snapshots = log 9

[run]
seed = 42
"""


# both operators zero-boundary with the quartic well: the positive branch
POSITIVE_BRANCH = MINIMAL.replace("kind = neumann", "kind = dirichlet") \
                         .replace("name = obstacle\nc2 = 1.0", "name = regular") \
                         .replace("y0 = cosine 0.1 0.4 0.2", "y0 = cosine 0 0.2 0.1")


class TestParseConfig:
    def test_minimal_document_defaults(self):
        cfg = cfgmod.parse_config(MINIMAL)
        assert cfg.newton_tol == st.SchemeConfig.newton_tol
        assert cfg.newton_max == st.SchemeConfig.newton_max
        assert cfg.seed == 42
        assert cfg.operator_a.kind == "neumann"

    def test_tau_bound(self):
        with pytest.raises(ConfigurationError, match="tau"):
            cfgmod.parse_config(MINIMAL.replace("tau = 0.25", "tau = 2"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            cfgmod.parse_config(MINIMAL.replace("[scheme]", "[scheme]\nwhatever = 1"))

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown section"):
            cfgmod.parse_config(MINIMAL + "\n[extra]\nx = 1\n")

    def test_missing_matrix_file_names_path(self, tmp_path):
        doc = MINIMAL.replace(
            "kind = neumann\nmodes = 12\nlength = 4.0\ngrid_points = 25\nexponent = 0.5\n\n[operator_b]",
            "kind = matrix\nmatrix_file = missing.txt\nexponent = 0.5\n\n[operator_b]",
            1,
        )
        with pytest.raises(ConfigurationError, match="missing.txt"):
            cfgmod.parse_config(doc, base_dir=str(tmp_path))

    def test_multiple_errors_reported_together(self):
        doc = MINIMAL.replace("tau = 0.25", "tau = 2").replace("h = 0.01", "h = -1")
        with pytest.raises(ConfigurationError) as excinfo:
            cfgmod.parse_config(doc)
        message = str(excinfo.value)
        assert "tau" in message and "h" in message
        # one error in every section: unknown, unparsable, missing and out of range
        edits = {
            "exponent = 0.5\n\n[operator_b]": "exponent = abc\n\n[operator_b]",
            "grid_points = 25\nexponent = 0.5\n\n[potential]": "exponent = 0.5\n\n[potential]",
            "c2 = 1.0": "c2 = 1.0\nc3 = 2",
            "tau = 0.25": "tau = 2",
            "y0 = cosine 0.1 0.4 0.2\n": "",
            "snapshots = log 9": "snapshots = log 9\nformat = csv",
            "seed = 42": "seed = x",
        }
        doc = MINIMAL
        for old, new in edits.items():
            assert old in doc
            doc = doc.replace(old, new, 1)
        with pytest.raises(ConfigurationError) as excinfo:
            cfgmod.parse_config(doc)
        assert sorted(str(excinfo.value).split("; ")) == [
            "[data] y0: missing",
            "[operator_a] exponent: cannot parse 'abc' as a finite number",
            "[operator_b] grid_points: missing",
            "[output] format: unknown key",
            "[potential] c3: unknown key",
            "[run] seed: cannot parse 'x' as an integer",
            "[scheme] tau: must lie in [0, 1]",
        ]

    def test_readme_example_parses(self):
        readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "README.md")
        with open(readme, encoding="utf-8") as fh:
            (example,) = re.findall(r"^```ini\n(.*?)^```$", fh.read(), re.S | re.M)
        cfg = cfgmod.parse_config(example)
        assert (cfg.operator_a.exponent, cfg.potential_params, cfg.tau) == (0.5, {"c2": 1.0}, 0.25)
        scheme, data = cfgmod.build_problem(cfg)
        assert (scheme.steps, scheme.grid.size) == (1000, 129)

    def test_build_problem(self):
        cfg = cfgmod.parse_config(MINIMAL)
        scheme, data = cfgmod.build_problem(cfg)
        assert scheme.steps == 120
        assert data.initial_mean == pytest.approx(0.1, abs=1e-12)

    def test_sections_differing_in_exponent_alone_share_one_basis(self):
        doc = MINIMAL.replace("exponent = 0.5\n\n[potential]", "exponent = 0.75\n\n[potential]")
        scheme, _ = cfgmod.build_problem(cfgmod.parse_config(doc))
        assert scheme.op_A.basis is scheme.op_B.basis
        assert (scheme.op_A.exponent, scheme.op_B.exponent) == (0.5, 0.75)
        # the shared basis is the one each section builds alone, bit for bit
        apart = sp.build_interval_basis("neumann", 12, 4.0, 25)
        assert np.array_equal(scheme.op_B.basis.modes, apart.modes)
        assert np.array_equal(scheme.op_B.basis.lambdas, apart.lambdas)
        other = doc.replace("modes = 12\nlength = 4.0\ngrid_points = 25\nexponent = 0.75",
                            "modes = 10\nlength = 4.0\ngrid_points = 25\nexponent = 0.75")
        scheme, _ = cfgmod.build_problem(cfgmod.parse_config(other))
        assert scheme.op_A.basis is not scheme.op_B.basis
        assert scheme.op_B.basis.n == 10

    def test_field_descriptor_file(self, tmp_path):
        grid = sp.interval_grid(4.0, 25)
        values = np.linspace(-0.5, 0.5, 25)
        path = tmp_path / "y0.txt"
        np.savetxt(path, values)
        f = cfgmod._build_field(f"file {path.name}", grid, str(tmp_path))
        assert np.allclose(f.values, values)

    def test_unknown_descriptor(self):
        grid = sp.interval_grid(4.0, 25)
        with pytest.raises(ConfigurationError):
            cfgmod._build_field("sine 1 2", grid, ".")

    def test_snapshot_schedules(self):
        assert cfgmod.snapshot_steps("every 10", 35) == [0, 10, 20, 30, 35]
        assert cfgmod.snapshot_steps("every 10", 30) == [0, 10, 20, 30]
        assert cfgmod.snapshot_steps("every 3", 0) == [0]
        log = cfgmod.snapshot_steps("log 5", 1000)
        assert log[0] == 0 and log[-1] == 1000
        assert len(log) <= 7
        with pytest.raises(ConfigurationError):
            cfgmod.snapshot_steps("weekly 2", 10)
        with pytest.raises(ConfigurationError, match="not an integer"):
            cfgmod.snapshot_steps("log many", 10)

    def test_matrix_grid_beyond_memory_fails_before_running(self, tmp_path):
        # a matrix operator's grid size is known only once its file is read
        (tmp_path / "op.txt").write_text("3\n0 0 0\n0 1 0\n0 0 2\n")
        section = "kind = neumann\nmodes = 12\nlength = 4.0\ngrid_points = 25\nexponent = 0.5\n"
        doc = MINIMAL.replace(section, "kind = matrix\nmatrix_file = op.txt\nexponent = 0.5\n")
        doc = doc.replace("steps = 120", f"steps = {10**19}").replace("y0 = cosine 0.1 0.4 0.2",
                                                                      "y0 = constant 0.1")
        cfg = cfgmod.parse_config(doc.replace("u_bump = cosine 0 0.05", "u_bump = constant 0"),
                                  base_dir=str(tmp_path))
        with pytest.raises(ConfigurationError, match="physical memory"):
            cfgmod.build_problem(cfg)


    def test_long_log_run_is_bounded_by_what_it_keeps(self, monkeypatch):
        # nothing runs: at 4 GiB of memory, the two (steps + 1) x grid arrays
        # of states a 10**6-step run at grid 513 once held (8.2e9 bytes) are
        # too large, while its 66 snapshot rows and per-step columns fit
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**20}
        monkeypatch.setattr(cfgmod.os, "sysconf", pages.__getitem__)
        doc = MINIMAL.replace("grid_points = 25", "grid_points = 513") \
                     .replace("steps = 120", "steps = 1000000") \
                     .replace("snapshots = log 9", "snapshots = log 65")
        assert 2 * (10**6 + 1) * 513 * 8 > 4096 * 2**20
        assert cfgmod.parse_config(doc).steps == 10**6
        # a snapshot at every step is a state array again
        with pytest.raises(ConfigurationError, match="physical memory"):
            cfgmod.parse_config(doc.replace("snapshots = log 65", "snapshots = every 1"))

    def test_run_bound_counts_bases_and_block_buffers(self, monkeypatch):
        # 120 steps with 10 snapshots on one shared basis of 12 modes over 513
        # nodes, where K is applied along the modes: the snapshot rows, 512
        # bytes per step, the 8 m n bytes of modes the basis keeps, the five
        # (65, m) block arrays and a direction along the modes, 8 n (m + n)
        # bytes, and not one byte more; its build, 8 (3 m n + n^2) bytes, is
        # over before the run allocates
        m, n = 513, 12
        need = 2 * 10 * m * 8 + 512 * 121 + 8 * m * n + 5 * 65 * 8 * m + 8 * n * (m + n)
        assert 8 * (3 * m * n + n * n) < need
        for memory, fits in ((need, True), (need - 1, False)):
            pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}
            monkeypatch.setattr(cfgmod.os, "sysconf", pages.__getitem__)
            assert (cfgmod.run_too_large(120, m, 10, (n,)) is None) == fits
        # the second of two bases is built beside what the first keeps, and
        # two bases bring the SVD of their union, here the step operator's peak
        message = cfgmod.run_too_large(120, m, 10, (n, n))
        assert f"bases of {8 * m * n + 8 * (3 * m * n + n * n):.3g} bytes" in message
        union = 2 * n
        svd = 8 * (4 * m * union + 6 * union**2 + 13 * union + 64 * (m + union))
        assert svd > 8 * union * (m + union) + 8 * m * union
        assert f"step operator of {svd:.3g} bytes" in message
        # built bases count what they keep
        message = cfgmod.run_too_large(120, m, 10, (n, n), built=True)
        assert f"bases of {2 * 8 * m * n:.3g} bytes" in message

    @pytest.mark.parametrize("kind_a", ["neumann", "dirichlet"], ids=["shared", "two-bases"])
    def test_step_operator_at_the_byte_boundary(self, kind_a, monkeypatch):
        # 12 modes per basis on 513 nodes.  A shared basis adds a direction
        # along its modes, 8 n (m + n) bytes, to the bases, block arrays,
        # snapshot rows and per-step bytes; two bases add the peak of the SVD
        # of their m x 2n union, which is above the 2n columns and a direction
        # along them
        m, n = 513, 12
        doc = MINIMAL.replace("grid_points = 25", f"grid_points = {m}").replace(
            "[operator_a]\nkind = neumann", f"[operator_a]\nkind = {kind_a}")
        if kind_a == "neumann":
            bases, operator = 1, 8 * n * (m + n)
        else:
            bases, columns = 2, 2 * n
            operator = 8 * (4 * m * columns + 6 * columns**2 + 13 * columns + 64 * (m + columns))
        need = 2 * 10 * m * 8 + 512 * 121 + bases * 8 * m * n + 5 * 65 * 8 * m + operator
        for memory, fits in ((need, True), (need - 1, False)):
            pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}
            monkeypatch.setattr(cfgmod.os, "sysconf", pages.__getitem__)
            if fits:
                assert cfgmod.parse_config(doc).steps == 120
            else:
                with pytest.raises(ConfigurationError) as excinfo:
                    cfgmod.parse_config(doc)
                assert f"step operator of {operator:.3g} bytes" in str(excinfo.value)

    def test_readme_basis_at_the_byte_boundary(self, monkeypatch):
        # 64 shared modes on 129 nodes, the basis of the README example: its
        # step operator holds a direction along the modes, 8 n (m + n) bytes,
        # and no m x m array
        m, n = 129, 64
        doc = MINIMAL.replace("grid_points = 25", f"grid_points = {m}").replace(
            "modes = 12", f"modes = {n}")
        assert st.step_operator_bytes(m, (n,)) == 8 * n * (m + n) == 98816
        need = 2 * 10 * m * 8 + 512 * 121 + 8 * m * n + 5 * 65 * 8 * m + 8 * n * (m + n)
        for memory, fits in ((need, True), (need - 1, False)):
            pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}
            monkeypatch.setattr(cfgmod.os, "sysconf", pages.__getitem__)
            if fits:
                assert cfgmod.parse_config(doc).steps == 120
            else:
                with pytest.raises(ConfigurationError, match="physical memory"):
                    cfgmod.parse_config(doc)

    def test_matrix_run_at_the_byte_boundary(self, tmp_path, monkeypatch):
        # a matrix basis of 3 nodes and 3 modes is counted once it is built:
        # 10 snapshot rows, 512 bytes per step, the 8 m^2 bytes the basis
        # keeps, the block arrays and the dense step operator's 4.25 m^2 doubles
        (tmp_path / "op.txt").write_text("3\n0 0 0\n0 1 0\n0 0 2\n")
        section = "kind = neumann\nmodes = 12\nlength = 4.0\ngrid_points = 25\nexponent = 0.5\n"
        doc = MINIMAL.replace(section, "kind = matrix\nmatrix_file = op.txt\nexponent = 0.5\n")
        doc = doc.replace("y0 = cosine 0.1 0.4 0.2", "y0 = constant 0.1")
        cfg = cfgmod.parse_config(doc.replace("u_bump = cosine 0 0.05", "u_bump = constant 0"),
                                  base_dir=str(tmp_path))
        m = 3
        need = 2 * 10 * m * 8 + 512 * 121 + 8 * m * m + 5 * 65 * 8 * m + 34 * m * m
        for memory, fits in ((need, True), (need - 1, False)):
            pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}
            monkeypatch.setattr(cfgmod.os, "sysconf", pages.__getitem__)
            if fits:
                assert cfgmod.build_problem(cfg)[0].grid.size == m
            else:
                with pytest.raises(ConfigurationError, match="physical memory"):
                    cfgmod.build_problem(cfg)

    def test_decaying_source_rows_at_the_byte_boundary(self, monkeypatch):
        # a decaying source with a bump evaluates the 64 rows of a block into a
        # (64, m) result through a (64, m) temporary, while the rows of the
        # block before are still held: three arrays beside the two (65, m)
        # buffers of y and mu, which the bound counts as five (65, m) arrays
        m, n = 4097, 12
        doc = MINIMAL.replace("grid_points = 25", f"grid_points = {m}")
        scheme, data = cfgmod.build_problem(cfgmod.parse_config(doc))
        tracemalloc.start()
        try:
            rows = data.source.values(scheme.h * np.arange(1, 65))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.shape == (64, m) and 64 * 8 * m <= kept <= 64 * 8 * m + 4096
        assert 2 * 64 * 8 * m <= peak <= 2 * 64 * 8 * m + 4096
        assert st.block_bytes(m) == 5 * 65 * 8 * m
        # 10 snapshot rows, 512 bytes per step, the 8 m n bytes the shared
        # basis keeps, the block arrays and a direction along the modes, and
        # not one byte more
        need = 2 * 10 * m * 8 + 512 * 121 + 8 * m * n + 5 * 65 * 8 * m + 8 * n * (m + n)
        for memory, fits in ((need, True), (need - 1, False)):
            pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}
            monkeypatch.setattr(cfgmod.os, "sysconf", pages.__getitem__)
            if fits:
                assert cfgmod.parse_config(doc).steps == 120
            else:
                with pytest.raises(ConfigurationError, match="physical memory"):
                    cfgmod.parse_config(doc)


class TestSerialization:
    def test_fmt_round_trips_doubles(self):
        rng = np.random.default_rng(1)
        for x in rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, size=200):
            assert float(runio.fmt(float(x))) == float(x)

    def test_json_escapes_and_specials(self, tmp_path):
        path = tmp_path / "x.json"
        runio.write_json(path, {"a": float("inf"), "b": [1, 2.5], "c": 'say "hi"'})
        import json

        loaded = json.loads(path.read_text())
        assert loaded["a"] == "inf"
        assert loaded["b"] == [1, 2.5]
        assert loaded["c"] == 'say "hi"'


def write_config(tmp_path, name="run.ini", doc=None):
    out = tmp_path / "out"
    text = (doc or MINIMAL).replace("OUTDIR", str(out))
    path = tmp_path / name
    path.write_text(text)
    return path, out


def tree(directory):
    """Every directory and file under ``directory``, with the bytes of each file."""
    found = {}
    for base, _, names in os.walk(directory):
        found[os.path.relpath(base, directory)] = None
        for name in names:
            with open(os.path.join(base, name), "rb") as fh:
                found[os.path.relpath(os.path.join(base, name), directory)] = fh.read()
    return found


def no_steps(*args):
    raise AssertionError("stepped")


MATRIX_OPERATOR = MINIMAL.replace(
    "kind = neumann\nmodes = 12\nlength = 4.0\ngrid_points = 25\nexponent = 0.5\n\n[operator_b]",
    "kind = matrix\nmatrix_file = bad\nexponent = 0.5\n\n[operator_b]", 1)


class TestRunDirectory:
    def test_simulate_writes_everything(self, tmp_path):
        path, out = write_config(tmp_path)
        assert cli.main(["simulate", str(path)]) == 0
        for name in ("trajectory.csv", "ledger.tsv", "estimates.json",
                     "snapshots_y.csv", "snapshots_mu.csv", "meta.json",
                     "config.ini", "plot.gp"):
            assert (out / name).exists(), name

    def test_reload_reproduces_fields_exactly(self, tmp_path):
        path, out = write_config(tmp_path)
        cli.main(["simulate", str(path)])
        cfg = cfgmod.load_config(str(path))
        scheme, data = cfgmod.build_problem(cfg)
        stored = runio.load_run(str(out))
        traj = st.run(scheme, data, stored.snapshot_steps)
        assert np.array_equal(stored.y_snapshots, traj.y_snapshots)
        _, mu_rows = runio._read_table(str(out / "snapshots_mu.csv"), ",")
        assert np.array_equal(mu_rows[:, 1:], traj.mu_snapshots)

    def test_determinism_byte_identical(self, tmp_path):
        path, out = write_config(tmp_path)
        cli.main(["simulate", str(path)])
        first = {name: (out / name).read_bytes() for name in os.listdir(out)}
        cli.main(["simulate", str(path)])
        second = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert first == second

    def test_longtime_report_roundtrip_bytes(self, tmp_path):
        path, out = write_config(tmp_path)
        cli.main(["simulate", str(path)])
        assert cli.main(["longtime-report", str(out)]) == 0
        first = (out / "report.json").read_bytes()
        # re-analyzing the stored run reproduces the report byte for byte
        assert cli.main(["longtime-report", str(out)]) == 0
        assert (out / "report.json").read_bytes() == first
        import json

        report = json.loads(first)
        assert report["branch"] == "lambda1_zero"
        assert report["mass_identity_defect"] <= 1e-10

    def test_longtime_report_fresh_config(self, tmp_path):
        path, out = write_config(tmp_path)
        out2 = tmp_path / "fresh"
        assert cli.main(["longtime-report", "--config", str(path),
                         "--out", str(out2)]) == 0
        assert (out2 / "report.json").exists()

    def test_positive_branch_report_tag(self, tmp_path):
        path, out = write_config(tmp_path, doc=POSITIVE_BRANCH)
        assert cli.main(["longtime-report", "--config", str(path)]) == 0
        import json

        report = json.loads((out / "report.json").read_text())
        assert report["branch"] == "lambda1_positive"
        assert report["mu_infinity"] is None
        # one entry per snapshot in each series, no S x S matrix
        assert report["schema"] == "fracch-longtime/2"
        assert "cauchy_gaps" not in report
        count = len(report["probe_times"])
        assert count >= 2
        assert len(report["gap_to_last"]) == len(report["tail_diameter"]) == count
        assert report["gap_to_last"][-1] == report["tail_diameter"][-1] == 0.0

    @pytest.mark.parametrize("branch, doc", [
        ("lambda1_zero", MINIMAL),
        ("lambda1_positive", POSITIVE_BRANCH),
    ], ids=["neumann_obstacle", "dirichlet_quartic"])
    def test_fresh_report_matches_reloaded_bytes(self, tmp_path, branch, doc):
        path, out = write_config(tmp_path, doc=doc)
        assert cli.main(["simulate", str(path)]) == 0
        assert cli.main(["longtime-report", str(out)]) == 0
        cfg = cfgmod.load_config(str(path))
        traj = st.run(*cfgmod.build_problem(cfg), cfgmod.snapshot_steps(cfg.snapshots, cfg.steps))
        payload = fresh_longtime_report(traj)
        assert payload["branch"] == branch
        fresh = (runio._json_value(payload) + "\n").encode()
        assert fresh == (out / "report.json").read_bytes()

    def test_relative_inputs_travel_with_the_run(self, tmp_path):
        grid = sp.interval_grid(4.0, 25)
        (tmp_path / "data").mkdir()
        np.savetxt(tmp_path / "data" / "y0.txt", 0.1 + 0.4 * np.cos(np.pi * grid.x / 4.0))
        bump = np.cos(np.pi * grid.x / 4.0)
        np.savetxt(tmp_path / "tab.txt", np.column_stack([[0.0, 0.3], [0.05 * bump, 0.0 * bump]]))
        doc = MINIMAL.replace("y0 = cosine 0.1 0.4 0.2", "y0 = file data/y0.txt") \
                     .replace("source = decay 0.5", "source = tabulated tab.txt")
        path, out = write_config(tmp_path, doc=doc)
        fresh = tmp_path / "fresh"
        assert cli.main(["longtime-report", "--config", str(path), "--out", str(fresh)]) == 0
        assert cli.main(["simulate", str(path)]) == 0
        for name in ("data/y0.txt", "tab.txt"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
        assert cli.main(["longtime-report", str(out)]) == 0
        assert (out / "report.json").read_bytes() == (fresh / "report.json").read_bytes()

    def test_input_outside_config_directory_fails_before_running(self, tmp_path, capsys,
                                                                 monkeypatch):
        grid = sp.interval_grid(4.0, 25)
        np.savetxt(tmp_path / "y0.txt", 0.1 + 0.4 * np.cos(np.pi * grid.x / 4.0))
        (tmp_path / "cfg").mkdir()
        doc = MINIMAL.replace("y0 = cosine 0.1 0.4 0.2", "y0 = file ../y0.txt")
        path, out = write_config(tmp_path / "cfg", doc=doc)
        with monkeypatch.context() as patch:
            patch.setattr(st, "run", no_steps)
            assert cli.main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and '"exit_code": 2' in err[0] and "absolute path" in err[0]
        assert not out.exists()
        path.write_text(path.read_text().replace("../y0.txt", str(tmp_path / "y0.txt")))
        assert cli.main(["simulate", str(path)]) == 0
        assert cli.main(["longtime-report", str(out)]) == 0

    def test_failed_write_leaves_previous_run_intact(self, tmp_path, monkeypatch):
        path, out = write_config(tmp_path)
        assert cli.main(["simulate", str(path)]) == 0
        assert cli.main(["longtime-report", str(out)]) == 0
        before = tree(tmp_path)
        write_table, calls = runio._write_table, []

        def write_two_tables(*args):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("disk gone")
            write_table(*args)

        monkeypatch.setattr(runio, "_write_table", write_two_tables)
        with pytest.raises(RuntimeError, match="disk gone"):
            cli.main(["simulate", str(path)])
        # the old run, its report included, and no half-written sibling
        assert tree(tmp_path) == before

    def test_rerun_in_place_replaces_the_whole_directory(self, tmp_path, capsys):
        grid = sp.interval_grid(4.0, 25)
        (tmp_path / "data").mkdir()
        np.savetxt(tmp_path / "data" / "y0.txt", 0.1 + 0.4 * np.cos(np.pi * grid.x / 4.0))
        doc = MINIMAL.replace("y0 = cosine 0.1 0.4 0.2", "y0 = file data/y0.txt")
        path, out = write_config(tmp_path, doc=doc)
        out.mkdir()  # an empty directory may be replaced
        assert cli.main(["simulate", str(path)]) == 0
        run = tree(out)
        assert cli.main(["longtime-report", str(out)]) == 0
        # relative inputs are read from the stored run before it is replaced
        assert cli.main(["simulate", str(out / "config.ini"), "--out", str(out)]) == 0
        assert tree(out) == run  # report.json of the earlier run does not survive
        assert sorted(os.listdir(tmp_path)) == ["data", "out", "run.ini"]
        umask = os.umask(0o022)
        os.umask(umask)
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o777 & ~umask
        assert stat.S_IMODE(os.stat(out / "meta.json").st_mode) == 0o666 & ~umask
        capsys.readouterr()
        assert cli.main(["longtime-report", str(out)]) == 0
        assert capsys.readouterr().out == (out / "report.json").read_text()
        assert stat.S_IMODE(os.stat(out / "report.json").st_mode) == 0o666 & ~umask
        assert set(tree(out)) == set(run) | {"report.json"}  # no temporary file left

    @pytest.mark.parametrize("target, token", [
        ("working directory", "working directory"),
        ("config directory", "neither empty nor a run"),
        ("directory of another schema", "neither empty nor a run"),
        ("config file", "not a directory"),
        ("path under a file", "not a directory"),
    ])
    def test_output_that_is_no_run_exits_2_before_running(self, tmp_path, capsys,
                                                           monkeypatch, target, token):
        path, _ = write_config(tmp_path)
        (tmp_path / "here").mkdir()
        (tmp_path / "other").mkdir()
        (tmp_path / "other" / "meta.json").write_text('{"schema": "notes/1"}')
        out = {"working directory": ".", "config directory": str(tmp_path),
               "config file": str(path), "path under a file": str(path / "run"),
               "directory of another schema": str(tmp_path / "other")}[target]
        if target == "working directory":
            monkeypatch.chdir(tmp_path / "here")  # empty, yet never replaced
        before = tree(tmp_path)
        monkeypatch.setattr(st, "run", no_steps)
        assert cli.main(["simulate", str(path), "--out", out]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1
        payload = json.loads(err[0])
        assert payload["exit_code"] == 2 and token in payload["message"]
        assert tree(tmp_path) == before

    def test_zero_data_config_writes_zero_tables(self, tmp_path):
        doc = MINIMAL.replace("y0 = cosine 0.1 0.4 0.2", "y0 = constant 0") \
                     .replace("source = decay 0.5", "source = zero")
        path, out = write_config(tmp_path, doc=doc)
        assert cli.main(["simulate", str(path)]) == 0
        rows = (out / "trajectory.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            cells = [float(c) for c in row.split(",")]
            assert all(abs(v) <= 1e-12 for v in cells[1:7])


class TestCliErrors:
    def test_config_error_exit_code(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, doc=MINIMAL.replace("tau = 0.25", "tau = 2"))
        assert cli.main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert '"exit_code": 2' in err

    def test_hypothesis_error_exit_code(self, tmp_path):
        doc = MINIMAL.replace("y0 = cosine 0.1 0.4 0.2", "y0 = constant 1.0")
        path, _ = write_config(tmp_path, doc=doc)
        assert cli.main(["simulate", str(path)]) == 4

    def test_missing_run_directory(self, tmp_path):
        assert cli.main(["longtime-report", str(tmp_path / "nope")]) == 2

    def test_window_outside_unit_interval(self, tmp_path, capsys):
        path, out = write_config(tmp_path)
        assert cli.main(["simulate", str(path)]) == 0
        capsys.readouterr()
        for window in ("0", "1", "2"):
            assert cli.main(["longtime-report", str(out), "--window", window]) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and '"exit_code": 2' in err[0] and "window" in err[0]
        assert not (out / "report.json").exists()

    def test_bad_snapshot_schedule_fails_before_running(self, tmp_path, capsys):
        path, out = write_config(tmp_path, doc=MINIMAL.replace("snapshots = log 9",
                                                               "snapshots = log many"))
        assert cli.main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and '"exit_code": 2' in err[0] and "many" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("name, keep", [
        ("trajectory.csv", -1), ("snapshots_y.csv", -1), ("snapshots_mu.csv", -1),
        ("meta.json", 0),
    ])
    def test_truncated_run_directory(self, tmp_path, capsys, name, keep):
        path, out = write_config(tmp_path)
        assert cli.main(["simulate", str(path)]) == 0
        lines = (out / name).read_text().splitlines(keepends=True)
        if keep:
            (out / name).write_text("".join(lines[:keep]))
        else:
            (out / name).unlink()
        capsys.readouterr()
        assert cli.main(["longtime-report", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and '"exit_code": 2' in err[0] and name in err[0]
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("name", ["snapshots_y.csv", "snapshots_mu.csv"])
    def test_snapshot_row_missing_a_field(self, tmp_path, capsys, name):
        path, out = write_config(tmp_path)
        assert cli.main(["simulate", str(path)]) == 0
        lines = (out / name).read_text().splitlines(keepends=True)
        lines[2] = lines[2].rsplit(",", 1)[0] + "\n"
        (out / name).write_text("".join(lines))
        capsys.readouterr()
        assert cli.main(["longtime-report", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and '"exit_code": 2' in err[0] and name in err[0]
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("edit", [
        "truncate", "list", "steps", "snapshot_steps", "y_min", "y_max", "steps=ten",
    ])
    def test_malformed_meta_json(self, tmp_path, capsys, edit):
        path, out = write_config(tmp_path)
        assert cli.main(["simulate", str(path)]) == 0
        meta_path = out / "meta.json"
        meta = json.loads(meta_path.read_text())
        if edit == "truncate":
            text = meta_path.read_text()[:40]
        elif edit == "list":
            text = json.dumps(list(meta))
        elif edit == "steps=ten":
            text = json.dumps({**meta, "steps": "ten"})
        else:
            del meta[edit]
            text = json.dumps(meta)
        meta_path.write_text(text)
        capsys.readouterr()
        assert cli.main(["longtime-report", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and '"exit_code": 2' in err[0] and "meta.json" in err[0]
        assert not (out / "report.json").exists()

    def test_step_error_reports_step_and_residuals(self, tmp_path, capsys):
        # the quartic well is nonlinear, so its first step needs a second iteration
        doc = MINIMAL.replace("name = obstacle\nc2 = 1.0", "name = regular") \
                     .replace("steps = 120", "steps = 120\nnewton_max = 1")
        path, out = write_config(tmp_path, doc=doc)
        assert cli.main(["simulate", str(path)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "StepError" and payload["exit_code"] == 3
        assert payload["step_index"] == 0
        assert len(payload["residual_history"]) == 2
        assert payload["residual_history"][-1] > st.SchemeConfig.newton_tol
        assert not out.exists()

    @pytest.mark.parametrize("replace,argv,token", [
        (("y0 = cosine 0.1 0.4 0.2", "y0 = constant abc"), None, "abc"),
        (("y0 = cosine 0.1 0.4 0.2", "y0 = cosine 0.1 x"), None, "'x'"),
        (("source = decay 0.5", "source = decay fast"), None, "fast"),
        (("u_bump = cosine 0 0.05", "u_bump = cosine nan"), None, "finite"),
        (("source = decay 0.5", "source = decay nan"), None, "finite"),
        (("length = 4.0", "length = nan"), None, "] length: cannot parse 'nan' as a finite"),
        (None, ["example-best", "--mu", ""], "profile"),
        (None, ["example-best", "--mu", "sin abc"], "abc"),
    ])
    def test_malformed_number_is_a_configuration_error(self, tmp_path, capsys,
                                                       replace, argv, token):
        path, out = write_config(tmp_path, doc=MINIMAL.replace(*replace) if replace else None)
        assert cli.main(argv or ["simulate", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and '"exit_code": 2' in err[0] and token in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("descriptor", ["y0 = file input.txt",
                                            "source = tabulated input.txt"])
    @pytest.mark.parametrize("text, token", [("", "input.txt"), ("abc def\n", "input.txt"),
                                             ("0.1 nan\n", "non-finite")])
    def test_unreadable_input_file_exits_2(self, tmp_path, capsys, descriptor, text, token):
        # an empty file once printed numpy's warning before the JSON line, and
        # a non-numeric one ended in a ValueError traceback with exit 1
        (tmp_path / "input.txt").write_text(text)
        key = descriptor.split()[0]
        doc = re.sub(rf"^{key} = .*$", descriptor, MINIMAL, count=1, flags=re.M)
        path, out = write_config(tmp_path, doc=doc)
        assert cli.main(["simulate", str(path)]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1
        payload = json.loads(err[0])
        assert payload["exit_code"] == 2 and token in payload["message"]
        assert not out.exists()

    def test_empty_input_file_prints_one_line(self, tmp_path):
        # numpy's warning goes to stderr through the warnings machinery,
        # which the test runner turns into errors; a child process shows it
        (tmp_path / "input.txt").write_text("")
        path, out = write_config(tmp_path, doc=MINIMAL.replace("y0 = cosine 0.1 0.4 0.2",
                                                               "y0 = file input.txt"))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "fracch.cli", "simulate", str(path)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2 and proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert json.loads(line)["exit_code"] == 2

    def test_step_count_beyond_memory_exits_2(self, tmp_path, capsys):
        # rejected at parse time: only the rejection is run, never the steps
        doc = MINIMAL.replace("steps = 120", "steps = 99999999999999999999") \
                     .replace("snapshots = log 9", "snapshots = every 1")
        path, out = write_config(tmp_path, doc=doc)
        assert cli.main(["simulate", str(path)]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1
        payload = json.loads(err[0])
        assert payload["exit_code"] == 2 and "] steps:" in payload["message"]
        assert "physical memory" in payload["message"]
        assert not out.exists()

    def test_dense_step_operator_beyond_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # at 8 MiB of memory: zero-boundary and zero-flux bases of 300 modes
        # each on 513 nodes span 332 columns, more than 3/5 of the grid, so
        # Newton may take the dense LU.  The bound takes all 600 modes as
        # columns: the dense arrays and the columns, 1.1e7 bytes, and the SVD
        # of the union, 2.78e7 bytes, either beyond memory, so the run is
        # rejected before any step; on one shared basis of 12 modes the same
        # run fits
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**11}
        monkeypatch.setattr(cfgmod.os, "sysconf", pages.__getitem__)
        doc = MINIMAL.replace("grid_points = 25", "grid_points = 513")
        two_bases = doc.replace("modes = 12", "modes = 300").replace(
            "[operator_a]\nkind = neumann", "[operator_a]\nkind = dirichlet")
        m, n = 513, 600
        assert 34 * m * m + 8 * m * n > 8 * 2**20
        path, out = write_config(tmp_path, "two.ini", doc=two_bases)
        assert cli.main(["simulate", str(path)]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1
        payload = json.loads(err[0])
        assert payload["exit_code"] == 2 and "] steps:" in payload["message"]
        assert "step operator of 2.78e+07 bytes" in payload["message"]
        assert "physical memory" in payload["message"]
        assert not out.exists()
        path, out = write_config(tmp_path, "shared.ini", doc=doc)
        assert cli.main(["simulate", str(path)]) == 0
        assert (out / "trajectory.csv").exists()

    def test_bases_beyond_memory_exit_2_before_any_allocation(self, tmp_path, capsys):
        # one step on 400000 nodes with 200000 shared modes: building the basis
        # peaks at 8 (3 m n + n^2) = 2.24e12 bytes, which once ended in numpy's
        # _ArrayMemoryError from np.outer; the document is rejected at parse time
        doc = MINIMAL.replace("modes = 12", "modes = 200000") \
                     .replace("grid_points = 25", "grid_points = 400000") \
                     .replace("steps = 120", "steps = 1")
        path, out = write_config(tmp_path, doc=doc)
        tracemalloc.start()
        try:
            assert cli.main(["simulate", str(path)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**7   # not one array of the grid's size
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1
        payload = json.loads(err[0])
        assert payload["exit_code"] == 2 and "] steps:" in payload["message"]
        assert "bases of 2.24e+12 bytes" in payload["message"]
        assert "physical memory" in payload["message"]
        assert not out.exists()

    def test_example_best_basis_build_beyond_memory_exits_2(self, capsys, monkeypatch):
        # at 4 MiB of memory: 200 modes on 1000 points peak at 8 (3 m n + n^2)
        # = 5.12e6 bytes while the basis is built; 8 m n (1.6e6) once let it run
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**10}
        monkeypatch.setattr(cfgmod.os, "sysconf", pages.__getitem__)
        argv = ["example-best", "--modes", "200", "--grid-points", "1000", "--tol", "1e-6"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1
        payload = json.loads(err[0])
        assert payload["exit_code"] == 2
        assert payload["message"].startswith("--grid-points: 200 modes on 1000 grid points "
                                             "need 5.12e+06 bytes")
        assert "physical memory" in payload["message"]

    @pytest.mark.parametrize("key,value", [
        ("yosida_lambda", "inf"), ("h", "1e308"), ("newton_tol", "-1"), ("newton_tol", "nan"),
        ("newton_max", "0"), ("exponent", "inf"),
        # the eigenvalues (pi j/length)^2 or the mode arguments pi x j/length overflow
        ("length", "1e-308"), ("length", "1e308"),
    ])
    def test_non_finite_or_out_of_range_setting_exits_2(self, tmp_path, capsys, key, value):
        # each of these used to run, or to fail only once stepping began
        line = re.search(rf"^{key} = .*$", MINIMAL, re.M)
        doc = (MINIMAL.replace(line.group(0), f"{key} = {value}", 1) if line
               else MINIMAL.replace("[scheme]\n", f"[scheme]\n{key} = {value}\n"))
        path, out = write_config(tmp_path, doc=doc)
        assert cli.main(["simulate", str(path)]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1
        payload = json.loads(err[0])
        assert payload["exit_code"] == 2 and f"] {key}:" in payload["message"]
        assert not out.exists()


    @pytest.mark.parametrize("reader", ["config", "matrix_file"])
    @pytest.mark.parametrize("case", ["missing", "directory", "not UTF-8"])
    def test_unreadable_config_or_matrix_file_exits_2(self, tmp_path, capsys, monkeypatch,
                                                      reader, case):
        bad = tmp_path / "bad"
        if case == "directory":
            bad.mkdir()
        elif case == "not UTF-8":
            bad.write_bytes(b"\xff\xfe\x00\x01")
        if reader == "config":
            path, out = bad, tmp_path / "out"
        else:
            path, out = write_config(tmp_path, doc=MATRIX_OPERATOR)
        monkeypatch.setattr(st, "run", no_steps)
        assert cli.main(["simulate", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1
        payload = json.loads(err[0])
        assert payload["exit_code"] == 2 and str(bad) in payload["message"]
        assert not out.exists()


    @pytest.mark.parametrize("matrix, token", [
        ("2\n1 -1e308\n-1e308 1\n", "negative eigenvalue"),
        ("1\n-1e308\n", "negative eigenvalue"),
        ("2\n0 1e308\n-1e308 0\n", "not symmetric"),
    ], ids=["negative_2x2", "negative_1x1", "overflowing_asymmetry"])
    def test_matrix_near_the_largest_double_is_an_operator_error(self, tmp_path, capsys,
                                                                 monkeypatch, matrix, token):
        # the sum m + m^T of the symmetric part overflowed before any range
        # check, which exited 3 as a numerical failure
        (tmp_path / "bad").write_text(matrix)
        path, out = write_config(tmp_path, doc=MATRIX_OPERATOR)
        monkeypatch.setattr(st, "run", no_steps)
        assert cli.main(["simulate", str(path)]) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        payload = json.loads(line)
        assert payload["error"] == "OperatorError" and token in payload["message"]
        assert not out.exists()


class TestCliAnalysis:
    def test_example_best_exit_zero(self, capsys):
        assert cli.main(["example-best", "--samples", "5"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 4
        assert all(row.endswith("\tpass") for row in rows)

    def test_check_potentials_table(self, capsys):
        assert cli.main(["check-potentials", "--lambdas", "0.1",
                         "--samples", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("spec\tlambda")
        assert len(out) == 5  # header + one row per potential

    def test_sweep_ratios_first_order(self, tmp_path, capsys):
        doc = MINIMAL.replace("name = obstacle\nc2 = 1.0", "name = regular") \
                     .replace("yosida_lambda = 1e-3", "yosida_lambda = 1e-2") \
                     .replace("h = 0.01", "h = 0.05") \
                     .replace("steps = 120", "steps = 16")
        path, _ = write_config(tmp_path, doc=doc)
        assert cli.main(["sweep", str(path), "--levels", "2"]) == 0
        rows = [line.split("\t") for line in
                capsys.readouterr().out.strip().splitlines()[1:]]
        for row in rows:
            assert 1.5 <= float(row[3]) <= 3.0, row

    @pytest.mark.parametrize("argv,flag", [
        (["example-best", "--samples", "0"], "--samples"),
        (["check-potentials", "--samples", "-3"], "--samples"),
        (["check-potentials", "--lambdas", "0.1", "nan"], "--lambdas"),
        (["check-potentials", "--range", "0"], "--range"),
        (["example-best", "--horizon", "nan"], "--horizon"),
        (["example-best", "--horizon", "-1"], "--horizon"),
        (["example-best", "--tol", "-1"], "--tol"),
        (["example-best", "--modes", "x"], "--modes"),
        (["example-best", "--length", "1e-308"], "interval length"),
        (["sweep", "CONFIG", "--levels", "0"], "--levels"),
        (["sweep", "CONFIG", "--levels", "-1"], "--levels"),
        (["sweep", "CONFIG", "--levels", "99999999999999999999"], "physical memory"),
        # each of these ended in numpy's _ArrayMemoryError traceback
        (["check-potentials", "--grid", "1000000000000000"], "--grid"),
        (["example-best", "--grid-points", "1000000000000000"], "--grid-points"),
        (["example-best", "--samples", "1000000000000000"], "--samples"),
        (["check-potentials", "--samples", "1000000000000000"], "--samples"),
    ])
    def test_flag_outside_its_range_exits_2(self, tmp_path, capsys, argv, flag):
        # each of these used to end in a traceback, a silent wrong run or exit 3
        path, _ = write_config(tmp_path)
        argv = [str(path) if arg == "CONFIG" else arg for arg in argv]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1
        payload = json.loads(err[0])
        assert payload["exit_code"] == 2 and flag in payload["message"]

    def test_console_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "fracch.cli", "--help"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "simulate" in result.stdout
