import pathlib
import re
import runpy
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def test_entropy_curves_smoke(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["entropy_curves.py", "--points", "3",
                                      "--outdir", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / "entropy_curves.py"), run_name="__main__")
    written = sorted(path.name for path in tmp_path.glob("*.csv"))
    assert written == ["entropy_charge.csv", "entropy_spin_am.csv", "entropy_spinless.csv"]
    gap = re.search(r"worst numeric vs closed-form gap: (\S+)", capsys.readouterr().out)
    assert float(gap.group(1)) <= 1e-10
