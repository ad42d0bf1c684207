# Fails when the built simulator library holds no prefetch instruction.
# DramMemory::PrefetchLines (sim/memory.h) prefetches, at issue, the host
# lines a timed read's completion reads; a compiler that drops it leaves
# every completion to miss in the host cache without changing any result,
# so only the machine code shows the loss.
#
#   cmake -DOBJDUMP=<objdump> -DLIB=<library> -P check_prefetch.cmake
if(NOT OBJDUMP OR NOT EXISTS "${OBJDUMP}")
  message("SKIP: objdump not found")
  return()
endif()
execute_process(COMMAND "${OBJDUMP}" -d "${LIB}"
                OUTPUT_VARIABLE disassembly RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "objdump -d ${LIB} exited with ${status}")
endif()
# objdump puts a tab before each mnemonic.
if(NOT disassembly MATCHES "\tprefetch")
  message(FATAL_ERROR "no prefetch instruction in ${LIB}")
endif()
message("prefetch instruction present in ${LIB}")
