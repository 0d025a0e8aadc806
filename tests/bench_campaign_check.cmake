# Script-mode checks of bench_campaign, run by ctest:
#
#   cmake -DCAMPAIGN=<bench_campaign> -DMODE=unknown -P bench_campaign_check.cmake
#     An unknown --figures name exits 2 before anything runs (empty stdout),
#     even when valid names precede it.
#   cmake -DCAMPAIGN=<bench_campaign> -DMODE=jsondir -P bench_campaign_check.cmake
#     A --json directory that cannot be created exits 1 before anything
#     runs, with a message instead of an uncaught exception.
#   cmake -DCAMPAIGN=<bench_campaign> -DMODE=headings -DRESULTS_DIR=<results>
#         -P bench_campaign_check.cmake
#     For every figure in --list, `--figures NAME --runs 2 --jobs 1` stdout
#     starts with results/NAME.txt up to its first "== " panel line, so the
#     committed results stay reproducible by the campaign.

if(MODE STREQUAL "unknown")
  execute_process(COMMAND "${CAMPAIGN}" --figures fig10_timing,nope --runs 2 --jobs 1
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2 for an unknown figure, got '${rc}'\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "expected empty stdout for an unknown figure, got:\n${out}")
  endif()
  if(NOT err MATCHES "unknown figure: nope")
    message(FATAL_ERROR "expected 'unknown figure: nope' on stderr, got:\n${err}")
  endif()
elseif(MODE STREQUAL "jsondir")
  # A path below a regular file can never be created as a directory.
  execute_process(COMMAND "${CAMPAIGN}" --figures fig10_timing --runs 2 --jobs 1
                          --json "${CMAKE_CURRENT_LIST_FILE}/json"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "expected exit 1 for an uncreatable --json dir, got '${rc}'\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "expected empty stdout for an uncreatable --json dir, got:\n${out}")
  endif()
  if(NOT err MATCHES "cannot create")
    message(FATAL_ERROR "expected 'cannot create' on stderr, got:\n${err}")
  endif()
elseif(MODE STREQUAL "headings")
  execute_process(COMMAND "${CAMPAIGN}" --list RESULT_VARIABLE rc OUTPUT_VARIABLE listing)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_campaign --list exited ${rc}")
  endif()
  string(REGEX MATCHALL "(^|\n)[a-z0-9_]+ " names "${listing}")
  list(LENGTH names count)
  if(count EQUAL 0)
    message(FATAL_ERROR "bench_campaign --list printed no figures:\n${listing}")
  endif()
  foreach(name IN LISTS names)
    string(STRIP "${name}" name)
    set(committed "${RESULTS_DIR}/${name}.txt")
    if(NOT EXISTS "${committed}")
      message(FATAL_ERROR "${name}: no committed ${committed}")
    endif()
    file(READ "${committed}" expected)
    string(FIND "${expected}" "\n== " panel)
    if(panel EQUAL -1)
      message(FATAL_ERROR "${name}: ${committed} has no '== ' panel line")
    endif()
    math(EXPR len "${panel} + 1")
    string(SUBSTRING "${expected}" 0 ${len} heading)
    execute_process(COMMAND "${CAMPAIGN}" --figures ${name} --runs 2 --jobs 1
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${name}: bench_campaign exited ${rc}")
    endif()
    string(SUBSTRING "${out}" 0 ${len} got)
    if(NOT got STREQUAL heading)
      message(FATAL_ERROR "${name}: heading differs from ${committed}\n"
                          "expected:\n${heading}\ngot:\n${got}")
    endif()
    message(STATUS "${name}: heading matches")
  endforeach()
else()
  message(FATAL_ERROR "MODE must be 'unknown', 'jsondir' or 'headings'")
endif()
