import relfi


def test_every_export_resolves_once():
    assert len(set(relfi.__all__)) == len(relfi.__all__)
    missing = [name for name in relfi.__all__ if not hasattr(relfi, name)]
    assert not missing
