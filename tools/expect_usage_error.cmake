# cmake -DBIN=<strix_serverd> -P expect_usage_error.cmake: passes only
# if a removed flag makes the daemon exit 2 naming it. --selftest goes
# first, so a binary that accepted the flag would exit 0, not serve.
execute_process(COMMAND ${BIN} --selftest --send-mtu 1 TIMEOUT 60
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown flag --send-mtu")
  message(FATAL_ERROR "want exit 2 and 'unknown flag', got ${rc}: ${err}")
endif()
