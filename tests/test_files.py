"""Whole-file text reads and atomic writes."""

import sys
import threading

import pytest

from pairsieve.files import write_atomically


def test_write_atomically_failing_midway_keeps_previous_file_and_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="midway"):
        with write_atomically(path) as fh:
            fh.write("new\n" * 5000)
            fh.flush()
            raise RuntimeError("midway")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_atomically_racing_writers_leave_one_whole_text(tmp_path):
    # two threads write one path at once, each flushing line by line so that their
    # writes interleave; every round ends with one writer's complete text, no
    # writer fails and no temp file is left
    path = tmp_path / "out.txt"
    texts = [[f"writer {w} line {i}\n" for i in range(100 + 50 * w)] for w in (0, 1)]
    wholes = {"".join(lines) for lines in texts}

    def write(lines, barrier, errors):
        try:
            barrier.wait(timeout=10)
            with write_atomically(path) as fh:
                for line in lines:
                    fh.write(line)
                    fh.flush()
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(20):
            barrier, errors = threading.Barrier(2), []
            threads = [threading.Thread(target=write, args=(lines, barrier, errors))
                       for lines in texts]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive(), trial
            assert errors == [], (trial, errors)
            assert path.read_text() in wholes, trial
            assert [p.name for p in tmp_path.iterdir()] == ["out.txt"], trial
    finally:
        sys.setswitchinterval(interval)
