# ctest script for the decogw smoke test (tools/decogw/CMakeLists.txt).
# Inputs: -DDECOGW=<path> -DSPEC=<gatewayspec.xml>
#
# 1. decogw runs SPEC for 0.2 s with side A on a fresh shm ring pair and
#    must exit 0. The ring name is random per run, so repeated or
#    parallel runs never share (or trip over) each other's rings.
# 2. decogw with no arguments must print its usage and exit 2.
if(NOT EXISTS "${DECOGW}")
  message(FATAL_ERROR
    "decogw binary '${DECOGW}' has not been built yet: rebuild required.\n"
    "Run: cmake --build <build-dir> -j (or scripts/verify.sh)")
endif()

string(RANDOM LENGTH 12 ALPHABET 0123456789abcdef _tag)
execute_process(
  COMMAND "${DECOGW}" "${SPEC}" --side-a "shm:/decogw_smoke_${_tag}" --duration 0.2 --quiet
  OUTPUT_VARIABLE _out
  ERROR_VARIABLE _err
  RESULT_VARIABLE _rc
  TIMEOUT 30)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "decogw ${SPEC}: expected exit 0, got ${_rc}\noutput:\n${_out}${_err}")
endif()

execute_process(
  COMMAND "${DECOGW}"
  OUTPUT_VARIABLE _out
  ERROR_VARIABLE _err
  RESULT_VARIABLE _rc
  TIMEOUT 30)
if(NOT _rc EQUAL 2)
  message(FATAL_ERROR "decogw with no arguments: expected exit 2, got ${_rc}\noutput:\n${_out}${_err}")
endif()
if(NOT _err MATCHES "usage: decogw")
  message(FATAL_ERROR "decogw with no arguments printed no usage:\n${_out}${_err}")
endif()
