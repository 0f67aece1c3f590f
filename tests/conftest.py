from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=60)
settings.load_profile("ci")

