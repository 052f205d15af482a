import spinphonon


def test_every_export_resolves():
    # a name left in __all__ after its definition is deleted fails here
    missing = [name for name in spinphonon.__all__ if not hasattr(spinphonon, name)]
    assert not missing
