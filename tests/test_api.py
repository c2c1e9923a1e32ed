import sudap

README_API = [
    "CurveRecorder",
    "DykstraConfig",
    "EndmemberMatrix",
    "ImageCube",
    "SudapError",
    "relative_error_db",
    "solve_oracle_activeset",
    "solve_sudap",
]


def test_package_root_exports_the_documented_api():
    assert sorted(sudap.__all__) == README_API
    for name in sudap.__all__:
        assert getattr(sudap, name) is not None
