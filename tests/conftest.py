from hypothesis import HealthCheck, settings

settings.register_profile(
    "workbench",
    derandomize=True,
    # derandomized examples are fixed by each test's source, so an unrelated
    # edit can push one past a per-example deadline on a loaded host
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("workbench")
