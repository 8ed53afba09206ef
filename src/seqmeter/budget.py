"""The work budget every expensive search checks before it runs.

A leaf module, so the CLI can default and catch budget refusals without
loading any search module.  `correlation` re-exports both names.
"""

DEFAULT_BUDGET = 10**9


class BudgetExceededError(RuntimeError):
    """Search-space size above the configured budget, raised before the search runs."""

    def __init__(self, cost: int, budget: int, unit: str = "summand evaluations"):
        self.cost = cost
        self.budget = budget
        super().__init__(f"search needs ~{cost} {unit}, budget is {budget}")
