import gossipopt


def test_active_backend_reports_choice():
    # numpy is the only numeric backend; benchmark results stamp this name
    assert gossipopt.active_backend() == "numpy"
