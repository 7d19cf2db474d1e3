import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_noise_removal_bad_seed_list_is_a_usage_error_before_any_run(tmp_path):
    spec = importlib.util.spec_from_file_location("run_noise_removal", SCRIPTS / "run_noise_removal.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with pytest.raises(SystemExit) as exit_info:
        script.main(["--seeds", "0,x", "--out-dir", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert not (tmp_path / "out").exists()
