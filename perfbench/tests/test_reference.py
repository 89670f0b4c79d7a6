import pytest

import reference


def test_kernel_repeats_its_checksum():
    assert reference.work(reference.data()) == reference.CHECKSUM
    assert reference.work(reference.data()) == reference.CHECKSUM
    assert reference.timed() > 0


def test_chase_visits_every_entry_once_per_cycle():
    nxt = reference.data()[3]
    seen, i = set(), 0
    for _ in range(reference.CHASE_LEN):
        seen.add(i)
        i = nxt[i]
    assert i == 0 and len(seen) == reference.CHASE_LEN


def test_normalize_scales_to_the_nominal_kernel_time():
    assert reference.normalize(3.0, reference.NOMINAL_S) == 3.0
    assert reference.normalize(3.0, 3 * reference.NOMINAL_S) \
        == pytest.approx(1.0)
