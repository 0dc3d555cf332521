let json_escape = Cpr_obs.Json.escape
