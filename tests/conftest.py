"""Shared pytest hooks."""


def pytest_report_header(config):
    # pyproject's pythonpath puts this checkout's src ahead of PYTHONPATH,
    # so say which piezolab the tests import
    import piezolab

    return f"piezolab: {piezolab.__file__}"
